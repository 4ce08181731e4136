"""Firefly engines for mixed search spaces.

Both engines are callers of one firefly loop, which moves positions in a
box of real intervals and code vectors in a code layout, in one of two
forms (below).  `run_famv` moves fireflies with type-aware operators: the
classical attraction rule on the continuous box, and a two-phase discrete
update (a probabilistic copy of differing components from the brighter
firefly, then a random exploration step) on the code vectors of
`famv.core`.  `run_classical_fa` is the continuous baseline applied through
relaxation: the loop runs on the relaxed box, where every dimension is a
real interval, with no code vector, and discrete values are decoded by
rounding at evaluation time.

The schedule comes from `_sweep` (Yang 2009): fireflies move one at a time,
each toward every brighter one in turn from its updated position, one FE per
move, and a firefly with no brighter one takes a uniform random step.  Each
move, an idle walk included, gets one read-only row of
w = n_c + 2 n_d + 2 n_cat doubles of the run's stream from `_Uniforms`,
whatever the positions: continuous noise (n_c), one copy uniform per code
(n_d), the integer step (n_d), one replacement flag per categorical code
(n_cat) and one redraw per categorical code (n_cat), the noise and step
already in their alpha forms.  fa has no code vector, so its row is the n
doubles of its noise.  famv reads ``d = xj - xi`` and the m differing
codes for the distance, the continuous move and the copy step, and computes
one decay e = exp(-gamma r^2), which gives both beta = beta0 e and the copy
probability e; code k is copied when it differs and its copy uniform is
below e.  fa clips once and rounds its discrete slots.
famv's exploration step is one pass over the whole code vector: the integer
step on every code, then each categorical code keeps its value from before
the step unless its flag is below the replacement probability, in which
case it is redrawn as floor(u * size) from its redraw column.  Every random
number of a run is a double of that one stream: the first population is
one draw of n + n_d doubles per firefly, the position first, and the rows
follow.

Each engine picks the form of a run, once, from the space's dimension
count, categorical or not.  famv runs a space of at most K'_famv =
`_SCALAR_DIMS_FAMV` = 24 dimensions, and fa a relaxed box of at most
K'_fa = `_SCALAR_DIMS_FA` = 14, in `_fly_floats`: a position is a list of
Python floats and a code vector a tuple of Python ints, a categorical code
being its symbol's index.  A move converts its row with one ``tolist()``,
moves and clips the position in one list comprehension, steps each integer
code in a short loop and redraws categorical codes with
`alpha_step_categorical` on lists.  Every other space runs `_fly`, one
pass of numpy operations per move over float64 positions and int64 codes.
At each FE both forms hand the position and the code vector, as the loop
holds them, to their engine's evaluation map, the one place that builds the
objective's value tuple: famv's decodes the codes, with
`SearchSpace.decode_ints` in the scalar form where a dimension is
categorical and with `SearchSpace.decode` in the array form, and fa's
rounds its relaxed discrete slots and decodes them where a dimension is
categorical.  Both forms do the same double operations in the same order,
r's left-to-right sum included (`famv.distances`), so a run's stream and
trace do not depend on the form.

Each K' is the largest dimension count at which the scalar form was not
slower for its engine on any row below: CPU time of 3 runs of 2000 FE in
the scalar form over the same runs in the array form (median of 9
alternated pairs, 2-core Xeon VM, Python 3.11.7, numpy 2.4.6).  The k + k
rows are sphere and rastrigin, with k continuous and k integer dimensions,
and a bowl of k continuous, k - 1 integer and one categorical dimension
("+ cat"); the k + k + k rows are mixed-cat's layout, k of each kind.  At
26 dimensions famv read 0.97-0.99 here, but famv-h 1.04 and 1.07 on sphere
in two other runs of 9 pairs: 26 is break-even within the noise, so
K'_famv is 24.

    dimensions 2k       4     8     12    14    16    20    24    26    28
    famv-h sphere       0.58  0.64  0.75  0.81  0.82  0.94  0.95  0.98  1.03
    famv-h rastrigin    0.59  0.68  0.74  0.75  0.81  0.88  0.92  0.97  1.02
    famv-g sphere       0.54  0.66  0.72  0.78  0.78  0.89  0.94  0.98  1.02
    famv-g rastrigin    0.61  0.68  0.75  0.80  0.83  0.88  0.96  0.99  1.02
    fa sphere           0.72  0.79  0.91  0.88  0.99  1.08  1.15  1.22  1.21
    fa k + k + cat      0.68  0.80  0.83  0.96  1.03  1.06  1.14  1.20  1.25

    dimensions 3k       6     12    18    24    30    36    42
    famv-h k + k + k    0.61  0.70  0.81  0.83  0.90  0.96  1.03
    famv-g k + k + k    0.62  0.68  0.78  0.83  0.90  0.98  1.05
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import partial
from types import SimpleNamespace

import numpy as np

from .core import (EvaluationBudget, ObjectiveFunction, Recorder, RunTrace, SearchSpace,
                   check_integer, check_real)
from .distances import CODE_DISTANCES, DistanceKind, float_distance, norm, norm_floats

_BLOCK = 4096   # doubles drawn ahead by _Uniforms, in whole rows
_HALF = np.array(0.5)   # 0-d: numpy 2 takes a slower path for a Python float operand


class _Uniforms:
    """The rows of the uniform stream of ``rng`` that a firefly run's moves
    read, drawn ahead in blocks.

    Every move, an idle walk included, gets one read-only row of
    w = n_c + 2 n_d + 2 n_cat doubles: n_c of continuous noise, one copy
    uniform per code, n_d of the integer step, one replacement flag per
    categorical code and one redraw per categorical code, in that order.  A
    block is ``max(1, _BLOCK // w)`` rows from one ``rng.random((rows, w))``
    call.  Each double of ``Generator.random`` comes from one 64-bit draw,
    so the rows are the doubles of one flat ``rng.random`` call, reshaped,
    however the blocks fall.  The rows come from the block in its alpha
    form, for the alpha last given to ``scale``: the noise columns hold
    alpha (u - 1/2), the step columns alpha (2u - 1) and every other column
    u.  A new alpha forms only the rows not yet read.  ``columns`` holds the
    five column groups as slices, in that order; `_fly` slices them out of
    the row, and `_fly_floats` converts the row to a list once.  The block
    is read-only, so no stage can write into its uniforms.  Once wrapped,
    ``rng`` must not be drawn from directly.
    """

    def __init__(self, rng: np.random.Generator, n_c: int, n_d: int, n_cat: int):
        edges = np.cumsum([0, n_c, n_d, n_d, n_cat, n_cat]).tolist()
        self.columns = tuple(map(slice, edges[:-1], edges[1:]))
        width = edges[-1]
        self._rng, self._shape, self._alpha = rng, (max(1, _BLOCK // width), width), 1.0
        self._raw, self._next = np.empty((0, width)), 0

    def scale(self, alpha: float) -> None:
        """Form the block's unread rows for ``alpha``, once per block and
        alpha, by the expressions a move would apply to its row: the same
        doubles.  An unchanged alpha keeps the block it already has."""
        if alpha != self._alpha:
            self._alpha = alpha
            self._rescale()

    def _rescale(self) -> None:
        """Drop the rows already read and form the others for the alpha."""
        raw, (noise, _, step, _, _) = self._raw[self._next:], self.columns
        self._raw, self._next = raw, 0
        block = raw.copy()
        block[:, noise] = self._alpha * (raw[:, noise] - 0.5)
        block[:, step] = self._alpha * (2.0 * raw[:, step] - 1.0)
        block.flags.writeable = False
        self._block = block

    def move(self) -> np.ndarray:
        """The next row, read-only, in the block's alpha form."""
        if self._next == len(self._raw):
            self._raw, self._next = self._rng.random(self._shape), 0
            self._rescale()
        t, self._next = self._next, self._next + 1
        return self._block[t]


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


def _differ(xi_codes: np.ndarray, xj_codes: np.ndarray) -> np.ndarray:
    """The indices of the codes in which two code vectors differ, in order."""
    return (xi_codes != xj_codes).nonzero()[0]


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


# Kept name: bench/run.py counts its calls and bench/tests asserts them on
# mixed-cat; both forms of the firefly loop look it up at call time, once per
# move on a space with a categorical dimension, and hand it lists.  The array
# form hands it its codes as the int64 vector and the flag and redraw columns
# from one tolist(), the fastest of the handings measured.  A move then costs
# about 1.2 + 0.13 k us for k categorical codes, against a constant 2.5-3 us
# for numpy's masked redraw (2-core Xeon VM, numpy 2.4.6), so past about 13
# codes the loop is the dearer.
def alpha_step_categorical(codes, cat_idx, sizes, flags, p_alpha: float, redraw):
    """Redraw in place, and return, ``codes``: each categorical code
    ``codes[cat_idx[k]]`` whose flag ``flags[k]``, a uniform, is below
    ``p_alpha`` is redrawn uniformly over its ``sizes[k]`` symbols (the
    current one may be redrawn).  The redraw truncates u * size for the
    code's own uniform u = ``redraw[k]`` in [0, 1), which stays below
    ``size`` for every u < 1.  The flag is not reused: rescaled as
    flag * (1 / p_alpha) it can round to 1 and give ``size``.  Any
    sequences serve, and an int64 array of codes stays one."""
    for k, size, flag, u in zip(cat_idx, sizes, flags, redraw):
        if flag < p_alpha:
            codes[k] = int(u * size)
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


# fa's code layout: a space's code attributes that the loop reads, all empty
_NO_CODES = SimpleNamespace(**dict.fromkeys(
    ("disc_lo", "disc_hi", "disc_sizes", "cat_idx", "cat_sizes"), np.empty(0, np.int64)))
# K': the most dimensions of a space that each engine moves in Python floats
# (the break-even table in the module docstring)
_SCALAR_DIMS_FAMV = 24
_SCALAR_DIMS_FA = 14


def _quiet(f):
    """``f`` under ``np.errstate(over="ignore")``."""
    def quiet(*args):
        with np.errstate(over="ignore"):
            return f(*args)
    return quiet


def _wide(config: FireflyConfig, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether a move in the box [``lo``, ``hi``] can pass the largest
    double: in r's squares, or in xi + beta * d + noise, whose size is at
    most the largest |bound| plus beta0 ||hi - lo|| plus alpha.  Python
    float operations overflow to inf silently."""
    lo, hi = lo.tolist(), hi.tolist()
    reach = max(map(abs, lo + hi), default=0.0)
    return math.isinf(reach + config.beta0 * norm_floats(lo, hi) + config.alpha)


def _start(config: FireflyConfig, lo: np.ndarray, hi: np.ndarray, layout):
    """A run's first population and the `_Uniforms` of its moves.  The
    population is one row of n + n_d doubles per firefly, the position
    first; a code is disc_lo + floor(u * size), below its bound for every
    u < 1.  Returns the positions and codes as matrices, one row each."""
    n, n_d = len(lo), len(layout.disc_lo)
    rng = np.random.default_rng(config.seed)
    pop = rng.random((min(config.pop_size, config.max_fe), n + n_d))
    codes = layout.disc_lo + (pop[:, n:] * layout.disc_sizes).astype(np.int64)
    return lo + pop[:, :n] * (hi - lo), codes, _Uniforms(rng, n, n_d, len(layout.cat_idx))


def _schedule(config: FireflyConfig, budget: EvaluationBudget) -> tuple[float, float]:
    """alpha and gamma for the next sweep: each one decayed with the budget's
    progress if its flag is set, else as configured."""
    if not (config.adapt_alpha or config.adapt_gamma):
        return config.alpha, config.gamma
    a, g = adapt_parameters(config.alpha, config.gamma, budget)
    return (a if config.adapt_alpha else config.alpha), (g if config.adapt_gamma else config.gamma)


def _fly(config: FireflyConfig, budget: EvaluationBudget, lo: np.ndarray, hi: np.ndarray,
         distance, evaluate, layout) -> None:
    """The array form of the firefly loop of both engines, run until
    ``budget`` is spent: positions move in the box [``lo``, ``hi``] and
    int64 code vectors in the code layout of ``layout``, a `SearchSpace` or
    `_NO_CODES`, with which the loop does no code work.  ``distance(d, m)``
    is r for ``d = xj - xi`` and m differing codes; ``evaluate(x, codes)``
    charges one FE of the position and the int64 code vector as the loop
    holds them, and is the engine's map that builds the value tuple.  In a
    box where `_wide` holds, numpy warns of an overflow that the scalar
    form's floats take silently, to the same inf, so such a run takes r,
    the move and the walk under `_quiet`."""
    n_d, n_cat = len(layout.disc_lo), len(layout.cat_idx)
    cat_idx, cat_list = layout.cat_idx, layout.cat_idx.tolist()
    cat_sizes = layout.cat_sizes.astype(float).tolist()   # exact up to 2**53
    # float bounds keep the step's clip in one dtype, which is exact within 2**52
    code_lo, code_hi = layout.disc_lo.astype(float), layout.disc_hi.astype(float)
    walk, attract = np.add, _attract
    if _wide(config, lo, hi):
        distance, walk, attract = _quiet(distance), _quiet(np.add), _quiet(_attract)
    first, first_codes, rows = _start(config, lo, hi, layout)
    xs, codes = list(first), list(first_codes)
    noise, copy_u, step_u, flags, _ = rows.columns
    fitness = [evaluate(x, c) for x, c in zip(xs, codes)]

    while not budget.exhausted:
        alpha, gamma = _schedule(config, budget)
        if n_cat:   # only a categorical code reads it
            p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        rows.scale(alpha)

        for i, j in _sweep(fitness, budget):
            row = rows.move()
            xi, disc = xs[i], codes[i]
            if j is None:
                x = walk(xi, row[noise])
            else:
                d, cj = xs[j] - xi, codes[j]
                differ = _differ(disc, cj) if n_d else ()
                r = distance(d, len(differ))
                e = math.exp(-gamma * r * r)   # beta / beta0 and the copy probability
                x = attract(xi, d, attractiveness(config.beta0, e), row[noise])
                if len(differ):
                    disc = _copy_differing(disc, cj, differ, e, row[copy_u])
            if n_d:
                stepped = _integer_step(disc, code_lo, code_hi, row[step_u])
                if n_cat:   # a categorical code keeps its pre-step value unless redrawn
                    stepped[cat_idx] = disc[cat_idx]
                    tail = row[flags.start:].tolist()   # the flag and redraw columns
                    alpha_step_categorical(stepped, cat_list, cat_sizes, tail[:n_cat], p_alpha,
                                           tail[n_cat:])
                codes[i] = stepped
            xs[i] = x = _clip(x, lo, hi)
            fitness[i] = evaluate(x, codes[i])


def _fly_floats(config: FireflyConfig, budget: EvaluationBudget, lo: np.ndarray,
                hi: np.ndarray, distance, evaluate, layout) -> None:
    """The scalar form of the firefly loop, for a space within its engine's
    size limit: `_fly`'s double operations in the same order, on a position
    list of floats and a code tuple of Python ints.  Each move converts its
    row with one ``tolist()``, moves and clips the position in one
    comprehension, steps each integer code from its ``(index, lo, hi,
    column)`` and hands the categorical codes to `alpha_step_categorical`
    as a list.  ``distance(xi, xj, m)`` takes two position lists, and
    ``evaluate(x, disc)`` a position list and a code tuple."""
    n, n_d, n_cat = len(lo), len(layout.disc_lo), len(layout.cat_idx)
    first, first_codes, rows = _start(config, lo, hi, layout)
    xs, codes = first.tolist(), [tuple(c) for c in first_codes.tolist()]
    lo, hi = lo.tolist(), hi.tolist()
    cat_idx, cat_sizes = layout.cat_idx.tolist(), layout.cat_sizes.astype(float).tolist()
    _, copy_u, step_u, flags, redraw = rows.columns
    steps = [(k, a, b, step_u.start + k)   # an integer code's index, bounds and step column
             for k, (a, b) in enumerate(zip(layout.disc_lo.tolist(), layout.disc_hi.tolist()))
             if k not in cat_idx]
    fitness = [evaluate(x, c) for x, c in zip(xs, codes)]

    while not budget.exhausted:
        alpha, gamma = _schedule(config, budget)
        if n_cat:   # only a categorical code reads it
            p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        rows.scale(alpha)

        for i, j in _sweep(fitness, budget):
            u = rows.move().tolist()
            xi, disc = xs[i], codes[i]
            # the clip is np.minimum(np.maximum(lo, x), hi), ties to the second operand
            if j is None:
                x = [a if a > (v := p + s) else v if v < b else b
                     for a, b, p, s in zip(lo, hi, xi, u)]
            else:   # d = xj - xi, formed where it is read
                xj, cj = xs[j], codes[j]
                m = sum(map(operator.ne, disc, cj))
                r = distance(xi, xj, m)
                e = math.exp(-gamma * r * r)   # beta / beta0 and the copy probability
                beta = attractiveness(config.beta0, e)
                x = [a if a > (v := p + beta * (q - p) + s) else v if v < b else b
                     for a, b, p, q, s in zip(lo, hi, xi, xj, u)]
                if m:
                    disc = [c if c == t or w >= e else t for c, t, w in zip(disc, cj, u[copy_u])]
            if n_d:   # `_integer_step`'s doubles; a categorical code keeps its value
                disc = list(disc)
                for k, a, b, c in steps:
                    v = disc[k] + u[c]
                    disc[k] = (a if v <= a else b if v >= b else
                               int(v + 0.5) if v >= 0.0 else int(v - 0.5))
                if n_cat:
                    alpha_step_categorical(disc, cat_idx, cat_sizes, u[flags], p_alpha, u[redraw])
                codes[i] = disc = tuple(disc)
            xs[i] = x
            fitness[i] = evaluate(x, disc)


def run_famv(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Mixed-variable firefly run under a function-evaluation budget: the
    firefly loop on the continuous box and the codes of the space, with r
    from the configured distance, handing each point's values to the
    `Recorder`."""
    space = problem.space
    rec = Recorder(problem, config.max_fe)
    if space.dim <= _SCALAR_DIMS_FAMV:
        _fly_floats(config, rec.budget, space.cont_lo, space.cont_hi,
                    float_distance(config.distance, space), _code_floats(rec), space)
    else:
        _fly(config, rec.budget, space.cont_lo, space.cont_hi,
             partial(CODE_DISTANCES[config.distance], space), _code_vectors(rec), space)
    return rec.build()


def _code_vectors(rec: Recorder):
    """famv's evaluation map in the array form, on a float64 position and
    an int64 code vector: the codes, decoded by the space."""
    decode = rec.space.decode
    return lambda x, codes: rec.evaluate(x, decode(codes))


def _code_floats(rec: Recorder):
    """famv's evaluation map in the scalar form, on a position list and a
    code tuple: the codes, decoded where a dimension is categorical."""
    if not len(rec.space.cat_idx):   # the code tuple is the value tuple
        return lambda x, disc: rec.evaluate(np.array(x), disc)
    decode = rec.space.decode_ints
    return lambda x, disc: rec.evaluate(np.array(x), decode(list(disc)))


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
    rec, space = Recorder(problem, config.max_fe), problem.space
    if space.dim <= _SCALAR_DIMS_FA:
        _fly_floats(config, rec.budget, space.lo, space.hi,
                    lambda xi, xj, m: norm_floats(xi, xj), _relaxed_floats(rec), _NO_CODES)
    else:
        _fly(config, rec.budget, space.lo, space.hi, lambda d, m: norm(d),
             _relaxed_evaluate(rec), _NO_CODES)
    return rec.build()


def _relaxed_evaluate(rec: Recorder):
    """fa's evaluation map in the array form: a clipped relaxed position's
    discrete slots round to codes, decoded where a dimension is categorical,
    and the loop's empty code vector is ignored."""
    space = rec.space
    cont_pos, disc_pos = space.cont_pos, space.disc_pos
    if not len(disc_pos):   # the position is the point
        return lambda x, _: rec.evaluate(x, ())
    if not len(space.cat_idx):   # the codes are the values
        return lambda x, _: rec.evaluate(x[cont_pos], tuple(_round_codes(x[disc_pos]).tolist()))
    decode = space.decode
    return lambda x, _: rec.evaluate(x[cont_pos], decode(_round_codes(x[disc_pos])))


def _round_ints(v: list) -> list:
    """`_round_codes` of a list of floats, as a list of ints."""
    return [int(x + 0.5) if x >= 0.0 else int(x - 0.5) for x in v]


def _relaxed_floats(rec: Recorder):
    """`_relaxed_evaluate` in the scalar form, on a position list: the
    rounded codes, decoded where a dimension is categorical."""
    space = rec.space
    cont_pos, disc_pos = space.cont_pos.tolist(), space.disc_pos.tolist()
    if not disc_pos:
        return lambda x, _: rec.evaluate(np.array(x), ())
    decode = space.decode_ints if len(space.cat_idx) else tuple
    return lambda x, _: rec.evaluate(np.array([x[k] for k in cont_pos]),
                                     decode(_round_ints([x[k] for k in disc_pos])))
