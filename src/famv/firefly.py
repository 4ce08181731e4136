"""Firefly engines for mixed search spaces.

Both engines are callers of one firefly loop, `_fly`, which moves
positions in a box of real intervals and code vectors in a code layout.
`run_famv` moves fireflies with type-aware operators: the classical
attraction rule on the continuous box, and a two-phase discrete update (a
probabilistic copy of differing components from the brighter firefly, then a
random exploration step) on the code vectors of `famv.core`.
`run_classical_fa` is the continuous baseline applied through relaxation:
the loop runs on the relaxed box, where every dimension is a real interval,
with no code vector, and discrete values are decoded by rounding at
evaluation time.

The schedule comes from `_sweep` (Yang 2009): fireflies move one at a time,
each toward every brighter one in turn from its updated position, one FE per
move, and a firefly with no brighter one takes a uniform random step.  Each
move, an idle walk included, reads one row of w = n_c + 2 n_d + 2 n_cat
doubles of the run's stream, whatever the positions: continuous noise (n_c),
one copy uniform per code (n_d), the integer step (n_d), one replacement
flag per categorical code (n_cat) and one redraw per categorical code
(n_cat).  fa has no code vector, so its row is the n doubles of its noise.
Each move is one pass of numpy operations over the vectors.  famv computes
``d = xj - xi`` and the indices of the m differing codes once, for the
distance, the continuous move and the copy step, and one decay
e = exp(-gamma r^2), which gives both beta = beta0 e and the copy
probability e; code k is copied when it differs and its copy uniform is
below e.  fa computes ``d`` once, clips once and rounds its discrete slots.
famv's exploration step is one pass over the whole code vector: the integer
step on every code, then each categorical code keeps its value from before
the step unless its flag is below the replacement probability, in which
case it is redrawn as floor(u * size) from its redraw column.  Every random
number of a run is a double of that one stream: the first population is
one draw of n + n_d doubles per firefly, the position first, and the rows
follow.

A run keeps each firefly's codes in one of two forms, which `_fly` alone
chooses, once, from the space.  With 0 to K = `_TUPLE_CODES` codes, all
integers, they are a tuple of Python ints, which is already the value tuple,
and the differ, copy and integer steps are short Python loops; every other
space keeps an int64 array and numpy steps, and the loop decodes it with
`SearchSpace.decode` at each FE.  Either way the loop hands the `Recorder`
values.  Both forms do the same double operations in the same order, so a
run's stream and trace do not depend on the form.  K is the largest n_d at
which tuples were faster on both problems below: CPU time of a famv-h run
of 2000 FE with tuples over the same run with arrays, on sphere and
rastrigin with n_d integer and n_d continuous dimensions (median of 21
alternated pairs, 2-core Xeon VM, Python 3.11.7, numpy 2.4.6):

    n_d         1     2     3     4     5     6     7     8     9     10    12    25
    sphere      0.79  0.82  0.83  0.89  0.91  0.94  0.97  0.98  1.00  1.03  1.06  1.28
    rastrigin   0.80  0.82  0.82  0.85  0.87  0.90  0.94  0.94  0.96  0.99  1.02  1.21
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from types import SimpleNamespace

import numpy as np

from .core import (EvaluationBudget, ObjectiveFunction, Recorder, RunTrace, SearchSpace,
                   check_integer, check_real)
from .distances import CODE_DISTANCES, DistanceKind

_BLOCK = 4096   # doubles drawn ahead by _Uniforms, in whole rows
_HALF = np.array(0.5)   # 0-d: numpy 2 takes a slower path for a Python float operand


class _Uniforms:
    """The rows of the uniform stream of ``rng`` that a firefly run's moves
    read, drawn ahead in blocks.

    Every move, an idle walk included, reads one row of
    w = n_c + 2 n_d + 2 n_cat doubles u: n_c of continuous noise, one copy
    uniform per code, n_d of the integer step, one replacement flag per
    categorical code and one redraw per categorical code, in that order.  A
    block is ``max(1, _BLOCK // w)`` rows from one ``rng.random((rows, w))``
    call.  Each double of ``Generator.random`` comes from one 64-bit draw,
    so the rows are the doubles of one flat ``rng.random`` call, reshaped,
    however the blocks fall.  The noise and step columns are also kept as
    alpha (u - 1/2) and alpha (2u - 1) for the alpha last given to
    ``scale``.  Every view is read-only, so no stage can write into its
    uniforms.  Once wrapped, ``rng`` must not be drawn from directly.
    """

    def __init__(self, rng: np.random.Generator, n_c: int, n_d: int, n_cat: int):
        width = n_c + 2 * n_d + 2 * n_cat
        self._rng, self._shape, self._alpha = rng, (max(1, _BLOCK // width), width), 1.0
        self._edges = np.cumsum([n_c, n_d, n_d, n_cat])   # where each later column group starts
        self._set_block(np.empty((0, width)))

    def _set_block(self, block: np.ndarray) -> None:
        self._block, self._next = block, 0
        block.flags.writeable = False
        self._rescale()

    def scale(self, alpha: float) -> None:
        """Keep the noise and step columns u of the block also as
        alpha (u - 1/2) and alpha (2u - 1), computed once per block and
        alpha by the expressions a move would apply to its row: the same
        doubles.  An unchanged alpha keeps the forms it already has."""
        if alpha != self._alpha:
            self._alpha = alpha
            self._rescale()

    def _rescale(self) -> None:
        a, b, c, d = self._edges
        alpha, block = self._alpha, self._block
        half, sym = alpha * (block[:, :a] - 0.5), alpha * (2.0 * block[:, b:c] - 1.0)
        half.flags.writeable = sym.flags.writeable = False
        self._columns = half, block[:, a:b], sym, block[:, c:d], block[:, d:]

    def move(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The next row, as five read-only views: the noise alpha (u - 1/2),
        the copy uniforms u, the integer step alpha (2u - 1), the
        categorical flags u and the categorical redraws u."""
        if self._next == len(self._block):
            self._set_block(self._rng.random(self._shape))
        t, self._next = self._next, self._next + 1
        half, copy, sym, flags, redraw = self._columns
        return half[t], copy[t], sym[t], flags[t], redraw[t]


@dataclass(frozen=True)
class FireflyConfig:
    """Settings of one firefly run.

    Defaults: population 25, beta0 = 1.5, alpha = 1.5, gamma = 0.1, k = 1,
    the `MIXED_EH` distance and no decay.  `run_classical_fa` reads only
    ``max_fe``, ``seed``, ``pop_size``, ``beta0``, ``alpha`` and ``gamma``;
    the other four (``k``, ``distance``, ``adapt_alpha``, ``adapt_gamma``)
    belong to famv's discrete step and schedule, and fa raises a ValueError
    naming any of them that is not at its default.

    Every setting is checked here, by name.  The integer settings
    (``max_fe`` >= 1, ``seed`` >= 0, ``pop_size`` >= 2) take any integer,
    numpy's included: a float, a string, None or a bool is a TypeError and a
    value below the least a ValueError.  The float settings (``beta0``,
    ``alpha``, ``gamma``, ``k``) take any real number, ints and numpy floats
    included: a string, None, a complex number or a bool is a TypeError and
    a value that is not finite and positive a ValueError.  ``distance`` must
    be a `DistanceKind` and the two flags bools, numpy's included, or it is a
    TypeError.
    """

    max_fe: int
    seed: int = 0
    pop_size: int = 25
    beta0: float = 1.5
    alpha: float = 1.5          # alpha_init when adapt_alpha is set
    gamma: float = 0.1          # gamma_init when adapt_gamma is set
    k: float = 1.0              # sigmoid steepness for the replacement probability
    distance: DistanceKind = DistanceKind.MIXED_EH
    adapt_alpha: bool = False
    adapt_gamma: bool = False

    def __post_init__(self):
        for name, least in (("max_fe", 1), ("seed", 0), ("pop_size", 2)):
            check_integer(name, getattr(self, name), least)
        for name in ("beta0", "alpha", "gamma", "k"):
            value = check_real(name, getattr(self, name))
            if not 0 < value < math.inf:   # false for NaN too
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not isinstance(self.distance, DistanceKind):
            raise TypeError(f"distance must be a DistanceKind, got {self.distance!r}")
        for name in ("adapt_alpha", "adapt_gamma"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")


# Kept name: bench/run.py counts its calls and the share with beta > 1e-3;
# the firefly loop takes beta from it, looked up at call time.
def attractiveness(beta0: float, e: float) -> float:
    """beta0 * e for a move's decay e = exp(-gamma r^2): full attraction at
    r = 0, decaying with distance."""
    return beta0 * e


def _attract(xi: np.ndarray, d: np.ndarray, beta: float, noise: np.ndarray) -> np.ndarray:
    """Move ``xi`` by ``beta * d`` (``d = xj - xi``) plus ``noise``, which
    is alpha (u - 1/2)."""
    return xi + beta * d + noise


def _clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.clip(x, lo, hi)``; ``np.clip`` costs twice as much on short vectors."""
    return np.minimum(np.maximum(lo, x), hi)


def _round_codes(v: np.ndarray) -> np.ndarray:
    """Round to the nearest integer code, halves away from zero (the cast
    truncates toward zero)."""
    return (v + np.copysign(_HALF, v)).astype(np.int64)


def _copy_differing(xi_codes: np.ndarray, xj_codes: np.ndarray, differ: np.ndarray,
                    prob: float, u: np.ndarray) -> np.ndarray:
    """Copy ``xj_codes[k]`` for each k of ``differ`` whose uniform ``u[k]``
    is below ``prob``; with no code copied, ``xi_codes`` itself comes back."""
    copied = differ[u[differ] < prob]
    if not len(copied):
        return xi_codes
    out = xi_codes.copy()
    out[copied] = xj_codes[copied]
    return out


def _copy_differing_ints(xi_codes, xj_codes, differ: list, prob: float,
                         u: np.ndarray) -> list:
    """`_copy_differing` on code tuples: a list of ``xi_codes`` with
    ``xj_codes[k]`` copied for each k of ``differ`` whose uniform ``u[k]``
    is below ``prob``."""
    out, u = list(xi_codes), u.tolist()
    for k in differ:
        if u[k] < prob:
            out[k] = xj_codes[k]
    return out


def _differ(xi_codes: np.ndarray, xj_codes: np.ndarray) -> np.ndarray:
    """The indices of the codes in which two code vectors differ, in order."""
    return (xi_codes != xj_codes).nonzero()[0]


def _differ_ints(xi_codes, xj_codes) -> list:
    """`_differ` on code tuples."""
    return [k for k in range(len(xi_codes)) if xi_codes[k] != xj_codes[k]]


# Draws its own uniforms because acceptance criterion 4 calls it with a Generator.
def beta_step(space: SearchSpace, xi_codes, xj_codes, prob: float,
              rng: np.random.Generator) -> np.ndarray:
    """Copy each differing discrete component from the brighter firefly with
    probability ``prob``; agreeing components never change.  As in a
    firefly move, one uniform is drawn per component, in order, and only a
    differing component's is read; with none copied, ``xi_codes`` itself
    comes back."""
    xi_codes, xj_codes = np.asarray(xi_codes), np.asarray(xj_codes)
    if len(xi_codes) != space.n_d or len(xj_codes) != space.n_d:
        raise ValueError("discrete parts do not conform to the space")
    return _copy_differing(xi_codes, xj_codes, _differ(xi_codes, xj_codes), prob,
                           rng.random(space.n_d))


def _integer_step(codes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  step: np.ndarray) -> np.ndarray:
    """round(codes + step) with ``step = alpha (2u - 1)``, halves away from
    zero, clipped into [lo, hi]: the sum is clipped first, which gives the
    same codes for integer bounds and keeps every value that is rounded and
    cast within the bounds, however large alpha is."""
    return _round_codes(_clip(codes + step, lo, hi))


def _integer_step_ints(codes, lo: list, hi: list, step: np.ndarray) -> tuple:
    """`_integer_step` on a code sequence of Python ints, with bound lists:
    the same doubles c + s, clipped, then rounded as ``int(v + copysign(1/2,
    v))``; a value at or past a bound is that bound."""
    out = []
    for c, a, b, s in zip(codes, lo, hi, step.tolist()):
        v = c + s
        out.append(a if v <= a else b if v >= b else int(v + math.copysign(0.5, v)))
    return tuple(out)


# Kept name: bench/run.py counts its calls and bench/tests asserts them on
# mixed-cat; the firefly loop looks it up at call time, once per move on a space with
# a categorical dimension.
def alpha_step_categorical(codes: np.ndarray, cat_idx: np.ndarray, sizes: np.ndarray,
                           flags: np.ndarray, p_alpha: float,
                           redraw: np.ndarray) -> np.ndarray:
    """Redraw in place, and return, ``codes``: each categorical code
    ``codes[cat_idx[k]]`` whose flag ``flags[k]``, a uniform, is below
    ``p_alpha`` is redrawn uniformly over its ``sizes[k]`` symbols (the
    current one may be redrawn).  The redraw truncates u * size for the
    code's own uniform u = ``redraw[k]`` in [0, 1), which stays below
    ``size`` for every u < 1.  The flag is not reused: rescaled as
    flag * (1 / p_alpha) it can round to 1 and give ``size``."""
    hit = (flags < p_alpha).nonzero()[0]
    codes[cat_idx[hit]] = (redraw[hit] * sizes[hit]).astype(np.int64)
    return codes


def replacement_prob(alpha: float, alpha_init: float, k: float, adaptive: bool) -> float:
    """Sigmoid mapping from the exploration parameter to a replacement
    probability; midpoint at alpha_init / 2 in the adaptive form."""
    z = k * (alpha - alpha_init / 2.0) if adaptive else k * alpha / 2.0
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:   # exp(-z) is past the largest double: the sigmoid is 0
        return 0.0


def adapt_parameters(alpha_init: float, gamma_init: float,
                     budget: EvaluationBudget) -> tuple[float, float]:
    """Linear decay with the consumed-budget ratio, floored at 0.01 to keep a
    minimum level of stochasticity."""
    remaining = 1.0 - budget.progress
    return max(0.01, alpha_init * remaining), max(0.01, gamma_init * remaining)


def _sweep(fitness: list[float], budget: EvaluationBudget):
    """One pass of the firefly schedule (Yang 2009): yields ``(i, j)`` for a
    move of firefly i toward the brighter j, and ``(i, None)`` for the idle
    walk of a firefly with no brighter one, and stops once the budget is
    spent.  The caller evaluates, which charges one FE, and stores i's new
    value in ``fitness[i]``, which is re-read after every yield, so each
    firefly moves from its updated position."""
    for i in range(len(fitness)):
        moved = False
        for j in range(len(fitness)):
            if i == j or not fitness[j] < fitness[i]:
                continue
            if budget.exhausted:
                return
            yield i, j
            moved = True
        if not moved:
            if budget.exhausted:
                return
            yield i, None


# fa's code layout: a space's code attributes that the loop reads, all empty,
# so its codes are the tuple (), already the value tuple
_NO_CODES = SimpleNamespace(**dict.fromkeys(
    ("disc_lo", "disc_hi", "disc_sizes", "cat_idx", "cat_sizes"), np.empty(0, np.int64)))
# K: the most codes that `_fly` keeps as a tuple of ints (the break-even
# table in the module docstring)
_TUPLE_CODES = 8


def _int_tuples(layout) -> bool:
    """Whether `_fly` keeps the codes of ``layout`` as tuples of Python ints,
    which are also the value tuples: 0 to `_TUPLE_CODES` codes, none of them
    categorical."""
    return len(layout.disc_lo) <= _TUPLE_CODES and not len(layout.cat_idx)


def _fly(config: FireflyConfig, budget: EvaluationBudget, lo: np.ndarray, hi: np.ndarray,
         distance, evaluate, layout) -> None:
    """The firefly loop of both engines, run until ``budget`` is spent:
    positions move in the box [``lo``, ``hi``] and code vectors in the code
    layout of ``layout``, a `SearchSpace` or `_NO_CODES`, with which the
    loop does no code work.  ``distance(d, m)`` is r for ``d = xj - xi``
    and m differing codes; ``evaluate(x, disc)`` charges one FE of the
    point with value tuple ``disc``.  The loop alone picks the code form:
    tuples of ints where `_int_tuples` holds, which it hands to
    ``evaluate`` as they are, else int64 arrays, which it decodes with
    ``layout.decode``."""
    n, n_d, n_cat = len(lo), len(layout.disc_lo), len(layout.cat_idx)
    # float sizes are exact up to 2**53, and u * size is then one dtype
    cat_idx, cat_sizes = layout.cat_idx, layout.cat_sizes.astype(float)
    # the code-step pieces of the run's code form; float bounds keep the
    # array step's clip in one dtype, which is exact within 2**52
    tuples = _int_tuples(layout)
    if tuples:
        differing, copy, step_codes = _differ_ints, _copy_differing_ints, _integer_step_ints
        code_lo, code_hi = layout.disc_lo.tolist(), layout.disc_hi.tolist()
    else:
        differing, copy, step_codes = _differ, _copy_differing, _integer_step
        code_lo, code_hi = layout.disc_lo.astype(float), layout.disc_hi.astype(float)

    # the first population: one row of n + n_d doubles per firefly, the
    # position first; a code is disc_lo + floor(u * size), below its bound
    # for every u < 1.  Every move then reads one row of `_Uniforms`
    rng = np.random.default_rng(config.seed)
    pop = rng.random((min(config.pop_size, config.max_fe), n + n_d))
    rows = _Uniforms(rng, n, n_d, n_cat)
    xs = list(lo + pop[:, :n] * (hi - lo))
    first = layout.disc_lo + (pop[:, n:] * layout.disc_sizes).astype(np.int64)
    codes = [tuple(c) for c in first.tolist()] if tuples else list(first)
    fitness = [evaluate(x, c if tuples else layout.decode(c)) for x, c in zip(xs, codes)]

    alpha, gamma = config.alpha, config.gamma
    while not budget.exhausted:
        if config.adapt_alpha or config.adapt_gamma:
            a, g = adapt_parameters(config.alpha, config.gamma, budget)
            alpha = a if config.adapt_alpha else alpha
            gamma = g if config.adapt_gamma else gamma
        if n_cat:   # only a categorical code reads it
            p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        rows.scale(alpha)

        for i, j in _sweep(fitness, budget):
            noise, u, step, flags, redraw = rows.move()
            xi, disc = xs[i], codes[i]
            if j is None:
                x = xi + noise
            else:
                d, cj = xs[j] - xi, codes[j]
                differ = differing(disc, cj) if n_d else ()
                r = distance(d, len(differ))
                e = math.exp(-gamma * r * r)   # beta / beta0 and the copy probability
                x = _attract(xi, d, attractiveness(config.beta0, e), noise)
                if len(differ):
                    disc = copy(disc, cj, differ, e, u)
            if n_d:
                stepped = step_codes(disc, code_lo, code_hi, step)
                if n_cat:   # a categorical code keeps its pre-step value unless redrawn
                    stepped[cat_idx] = disc[cat_idx]
                    alpha_step_categorical(stepped, cat_idx, cat_sizes, flags, p_alpha, redraw)
                codes[i] = stepped
            xs[i] = x = _clip(x, lo, hi)
            fitness[i] = evaluate(x, codes[i] if tuples else layout.decode(codes[i]))


def run_famv(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Mixed-variable firefly run under a function-evaluation budget: the
    firefly loop on the continuous box and the codes of the space, with r
    from the configured distance, handing each point's values to the
    `Recorder`."""
    space = problem.space
    rec = Recorder(problem, config.max_fe)
    _fly(config, rec.budget, space.cont_lo, space.cont_hi,
         partial(CODE_DISTANCES[config.distance], space), rec.evaluate, space)
    return rec.build()


# the settings fa reads; the others belong to famv's discrete step and schedule
_FA_SETTINGS = ("max_fe", "seed", "pop_size", "beta0", "alpha", "gamma")


def run_classical_fa(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Continuous firefly baseline: the firefly loop on the relaxed box
    ``space.lo``/``space.hi`` with r = ||d|| and no code vector.  A firefly
    with no brighter one takes a uniform random step of alpha * (U - 1/2), as
    in Yang's FA, so a flat objective still spends the whole budget.  A
    setting outside ``_FA_SETTINGS`` that is not at its default is a
    ValueError naming it."""
    for f in fields(FireflyConfig):
        if f.name not in _FA_SETTINGS and getattr(config, f.name) != f.default:
            raise ValueError(f"fa has no setting {f.name}, got {getattr(config, f.name)!r}")
    rec = Recorder(problem, config.max_fe)
    _fly(config, rec.budget, problem.space.lo, problem.space.hi,
         lambda d, m: math.sqrt(d.dot(d)), _relaxed_evaluate(rec), _NO_CODES)
    return rec.build()


def _relaxed_evaluate(rec: Recorder):
    """fa's evaluation map: a clipped relaxed position's discrete slots
    round to codes, which the space decodes, and the values the loop passes
    are ignored."""
    cont_pos, disc_pos, decode = rec.space.cont_pos, rec.space.disc_pos, rec.space.decode
    if not len(disc_pos):   # the position is the point, and the loop passes ()
        return rec.evaluate
    return lambda x, _: rec.evaluate(x[cont_pos], decode(_round_codes(x[disc_pos])))
