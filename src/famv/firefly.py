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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from types import SimpleNamespace

import numpy as np

from .core import (EvaluationBudget, ObjectiveFunction, Recorder, RunTrace, SearchSpace,
                   check_integer)
from .distances import CODE_DISTANCES, DistanceKind

_BLOCK = 4096   # doubles drawn ahead by _Uniforms


class _Uniforms:
    """The uniform stream of ``rng``, served from blocks drawn ahead.

    Each double of ``Generator.random`` comes from one 64-bit draw, so
    ``random(n)`` calls give exactly the doubles one ``rng.random(total)``
    call would, however they are chunked, at a slice's cost instead of a
    ``Generator`` call's; ``move`` serves them in the forms one firefly
    move uses, scaled by the alpha last given to ``scale``.  Blocks are
    read-only, so no stage can write into its uniforms.  The firefly loop
    wraps its generator before its first draw, so a firefly run takes only
    doubles from it, codes included.  Once wrapped, ``rng`` must not be
    drawn from directly.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._pos, self._alpha = rng, 0, 1.0
        self._set_block(np.empty(0))

    def _set_block(self, block: np.ndarray) -> None:
        self._block = block
        block.flags.writeable = False
        self._rescale()

    def scale(self, alpha: float) -> None:
        """Keep each double u of the block also as alpha (u - 1/2) and
        alpha (2u - 1), the forms a move uses, computed once per block and
        alpha by the expressions a move would apply to its slice: the same
        doubles.  An unchanged alpha keeps the forms it already has."""
        if alpha != self._alpha:
            self._alpha = alpha
            self._rescale()

    def _rescale(self) -> None:
        alpha, block = self._alpha, self._block
        self._half, self._sym = alpha * (block - 0.5), alpha * (2.0 * block - 1.0)
        self._half.flags.writeable = self._sym.flags.writeable = False

    def _take(self, n: int) -> int:
        """Where the next ``n`` doubles start in the current block."""
        end = self._pos + n
        if end > len(self._block):
            self._set_block(np.concatenate((self._block[self._pos:],
                                            self._rng.random(max(_BLOCK, n)))))
            self._pos, end = 0, n
        start, self._pos = self._pos, end
        return start

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` doubles in [0, 1), as a read-only array."""
        start = self._take(n)
        return self._block[start:start + n]

    def move(self, n_c: int, m: int, n_d: int,
             n_cat: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The next ``n_c + m + n_d + n_cat`` doubles u of one firefly move:
        alpha (u - 1/2) for the first ``n_c`` (continuous noise), u for the
        next ``m`` (copy uniforms), alpha (2u - 1) for the next ``n_d`` (the
        integer step) and u for the last ``n_cat`` (categorical flags)."""
        a = self._take(n_c + m + n_d + n_cat)
        b, c, d = a + n_c, a + n_c + m, a + n_c + m + n_d
        return self._half[a:b], self._block[b:c], self._sym[c:d], self._block[d:d + n_cat]


@dataclass(frozen=True)
class FireflyConfig:
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
            if not 0 < getattr(self, name) < math.inf:   # false for NaN too
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not isinstance(self.distance, DistanceKind):
            raise TypeError(f"distance must be a DistanceKind, got {self.distance!r}")
        for name in ("adapt_alpha", "adapt_gamma"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")


# Kept name: bench/run.py counts its calls and the share with beta > 1e-3;
# the firefly loop takes beta from it, looked up at call time.
def attractiveness(beta0: float, gamma: float, r: float) -> float:
    """beta0 * exp(-gamma r^2): full attraction at r = 0, decaying with distance."""
    return beta0 * math.exp(-gamma * r * r)


def discrete_attraction_prob(gamma: float, r: float) -> float:
    """exp(-gamma r^2), used as the per-component copy probability."""
    return math.exp(-gamma * r * r)


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
    return (v + np.copysign(0.5, v)).astype(np.int64)


def _copy_differing(xi_codes: np.ndarray, xj_codes: np.ndarray, differ: np.ndarray,
                    prob: float, u: np.ndarray) -> np.ndarray:
    """Copy ``xj_codes[k]`` for each k of ``differ`` whose uniform is below
    ``prob``; with no code copied, ``xi_codes`` itself comes back."""
    copied = differ[u < prob]
    if not len(copied):
        return xi_codes
    out = xi_codes.copy()
    out[copied] = xj_codes[copied]
    return out


# Draws its own uniforms because acceptance criterion 4 calls it with a Generator.
def beta_step(space: SearchSpace, xi_codes, xj_codes, prob: float,
              rng: np.random.Generator) -> np.ndarray:
    """Copy each differing discrete component from the brighter firefly with
    probability ``prob``; agreeing components never change.  One uniform is
    drawn per differing component, in order; with none copied, ``xi_codes``
    itself comes back."""
    xi_codes, xj_codes = np.asarray(xi_codes), np.asarray(xj_codes)
    if len(xi_codes) != space.n_d or len(xj_codes) != space.n_d:
        raise ValueError("discrete parts do not conform to the space")
    differ = (xi_codes != xj_codes).nonzero()[0]
    return _copy_differing(xi_codes, xj_codes, differ, prob, rng.random(len(differ)))


def _integer_step(codes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  step: np.ndarray) -> np.ndarray:
    """round(codes + step) with ``step = alpha (2u - 1)``, halves away from
    zero, clipped into [lo, hi]."""
    return _clip(_round_codes(codes + step), lo, hi)


# Kept name: bench/run.py counts its calls and bench/tests asserts them on
# mixed-cat; the firefly loop looks it up at call time, once per move on a space with
# a categorical dimension.
def alpha_step_categorical(codes: np.ndarray, cat_idx: np.ndarray, sizes: np.ndarray,
                           flags: np.ndarray, p_alpha: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Redraw in place, and return, ``codes``: each categorical code
    ``codes[cat_idx[k]]`` whose flag, a uniform, is below ``p_alpha`` is
    redrawn uniformly over its ``sizes[k]`` symbols (the current one may be
    redrawn).  The redraw truncates u * size for a fresh u in [0, 1) from
    ``rng``, which stays below ``size`` for every u < 1."""
    hit = (flags < p_alpha).nonzero()[0]
    codes[cat_idx[hit]] = (rng.random(len(hit)) * sizes[hit]).astype(np.int64)
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


_EMPTY = np.empty(0, np.int64)
# fa's code layout: a space's code attributes that the loop reads, all empty
_NO_CODES = SimpleNamespace(**dict.fromkeys(
    ("disc_lo", "disc_hi", "disc_sizes", "cat_idx", "cat_sizes", "is_cat"), _EMPTY))


def _fly(config: FireflyConfig, budget: EvaluationBudget, lo: np.ndarray, hi: np.ndarray,
         distance, evaluate, layout) -> None:
    """The firefly loop of both engines, run until ``budget`` is spent:
    positions move in the box [``lo``, ``hi``] and code vectors in the code
    layout of ``layout``, a `SearchSpace` or `_NO_CODES`, with which the
    loop does no code work.  ``distance(d, m)`` is r for ``d = xj - xi``
    and m differing codes; ``evaluate(x, codes)`` charges one FE."""
    n, n_d, cat_idx, is_cat = len(lo), len(layout.disc_lo), layout.cat_idx, layout.is_cat
    n_cat, width = len(cat_idx), hi - lo
    rng = _Uniforms(np.random.default_rng(config.seed))

    # the first population: n + n_d doubles each, the position first; a code
    # is disc_lo + floor(u * size), below its bound for every u < 1
    xs, codes, fitness = [], [], []
    for _ in range(min(config.pop_size, config.max_fe)):
        u = rng.random(n + n_d)
        xs.append(lo + u[:n] * width)
        codes.append(layout.disc_lo + (u[n:] * layout.disc_sizes).astype(np.int64)
                     if n_d else _EMPTY)
        fitness.append(evaluate(xs[-1], codes[-1]))

    alpha, gamma = config.alpha, config.gamma
    while not budget.exhausted:
        if config.adapt_alpha or config.adapt_gamma:
            a, g = adapt_parameters(config.alpha, config.gamma, budget)
            alpha = a if config.adapt_alpha else alpha
            gamma = g if config.adapt_gamma else gamma
        p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        rng.scale(alpha)

        # one draw per move: the position's noise, a copy uniform per differing
        # code, the integer step and the categorical flags; the redraws follow
        for i, j in _sweep(fitness, budget):
            xi, disc = xs[i], codes[i]
            if j is None:
                noise, _, step, flags = rng.move(n, 0, n_d, n_cat)
                x = xi + noise
            else:
                d, cj = xs[j] - xi, codes[j]
                differ = (disc != cj).nonzero()[0] if n_d else _EMPTY
                m = len(differ)
                r = distance(d, m)
                noise, u, step, flags = rng.move(n, m, n_d, n_cat)
                x = _attract(xi, d, attractiveness(config.beta0, gamma, r), noise)
                if n_d:
                    disc = _copy_differing(disc, cj, differ, discrete_attraction_prob(gamma, r), u)
            if n_d:
                stepped = _integer_step(disc, layout.disc_lo, layout.disc_hi, step)
                if n_cat:   # a categorical code keeps its pre-step value unless redrawn
                    stepped = alpha_step_categorical(np.where(is_cat, disc, stepped), cat_idx,
                                                     layout.cat_sizes, flags, p_alpha, rng)
                codes[i] = stepped
            xs[i] = x = _clip(x, lo, hi)
            fitness[i] = evaluate(x, codes[i])


def run_famv(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Mixed-variable firefly run under a function-evaluation budget: the
    firefly loop on the continuous box and the codes of the space, with r
    from the configured distance; the `Recorder` decodes the codes."""
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
    own = FireflyConfig(**{name: getattr(config, name) for name in _FA_SETTINGS})
    for f in fields(FireflyConfig):
        if getattr(config, f.name) != getattr(own, f.name):
            raise ValueError(f"fa has no setting {f.name}, got {getattr(config, f.name)!r}")
    rec = Recorder(problem, config.max_fe)
    _fly(config, rec.budget, problem.space.lo, problem.space.hi,
         lambda d, m: math.sqrt(d.dot(d)), _relaxed_evaluate(rec), _NO_CODES)
    return rec.build()


def _relaxed_evaluate(rec: Recorder):
    """fa's evaluation map: a clipped relaxed position's discrete slots
    round to codes, and the codes the loop passes are ignored."""
    cont_pos, disc_pos = rec.space.cont_pos, rec.space.disc_pos
    return lambda x, _: rec.evaluate(x[cont_pos], _round_codes(x[disc_pos]))
