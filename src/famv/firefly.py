"""Firefly engines for mixed search spaces.

`run_famv` moves fireflies with type-aware operators: the classical
attraction rule on the continuous part, and a two-phase discrete update (a
probabilistic copy of differing components from the brighter firefly, then a
random exploration step), both on the discrete code vectors of `famv.core`.
`run_classical_fa` is the continuous baseline applied through relaxation:
every dimension becomes a real interval and discrete values are decoded by
rounding at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (EvaluationBudget, ObjectiveFunction, Recorder, RunTrace,
                   SearchSpace, random_point)
from .distances import CODE_DISTANCES, DistanceKind

_BLOCK = 4096   # doubles drawn ahead by _Uniforms


class _Uniforms:
    """The uniform stream of ``rng``, served from blocks drawn ahead.

    Each double of ``Generator.random`` comes from one 64-bit draw, so
    ``random(n)`` calls give exactly the doubles one ``rng.random(total)``
    call would, however they are chunked, at a slice's cost instead of a
    ``Generator`` call's; ``move`` serves them in the forms one firefly
    move uses, scaled by the alpha last given to ``scale``.  Blocks are
    read-only, so no stage can write into its uniforms.  Both engines wrap
    their generator before their first draw, so a firefly run takes only
    doubles from it, codes included.  Once wrapped, ``rng`` must not be
    drawn from directly.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._pos, self._alpha = rng, 0, 1.0
        self._set_block(np.empty(0))

    def _set_block(self, block: np.ndarray) -> None:
        self._block = block
        block.flags.writeable = False
        self.scale(self._alpha)

    def scale(self, alpha: float) -> None:
        """Keep each double u of the block also as alpha (u - 1/2) and
        alpha (2u - 1), the forms a move uses, computed once per block and
        alpha by the expressions a move would apply to its slice: the same
        doubles."""
        self._alpha = alpha
        self._half, self._sym = alpha * (self._block - 0.5), alpha * (2.0 * self._block - 1.0)
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
        if self.pop_size < 2:
            raise ValueError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("beta0", "alpha", "gamma", "k"):
            if not 0 < getattr(self, name) < math.inf:   # false for NaN too
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


# Kept name: bench/run.py counts its calls and the share with beta > 1e-3;
# both engines take beta from it, looked up at call time.
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
# mixed-cat; run_famv looks it up at call time, once per move on a space with
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


def run_famv(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Mixed-variable firefly run under a function-evaluation budget.

    The population is kept as continuous vectors, code vectors and a fitness
    list; the `Recorder` charges each evaluation and decodes the codes for
    the objective.
    """
    space = problem.space
    n_c, n_d, cat_idx, n_cat = space.n_c, space.n_d, space.cat_idx, len(space.cat_idx)
    is_cat = np.isin(np.arange(n_d), cat_idx)
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    distance = CODE_DISTANCES[config.distance]

    conts, codes, fitness = [], [], []
    for _ in range(min(config.pop_size, config.max_fe)):
        cont, code = random_point(space, rng)
        conts.append(cont)
        codes.append(code)
        fitness.append(rec.evaluate(cont, code))

    alpha, gamma = config.alpha, config.gamma
    while not rec.budget.exhausted:
        if config.adapt_alpha or config.adapt_gamma:
            a, g = adapt_parameters(config.alpha, config.gamma, rec.budget)
            if config.adapt_alpha:
                alpha = a
            if config.adapt_gamma:
                gamma = g
        p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        rng.scale(alpha)

        # one draw per move: continuous noise, a copy uniform per differing
        # code, the integer step and the categorical flags; the redraws follow
        for i, j in _sweep(fitness, rec.budget):
            xi, ci = conts[i], codes[i]
            if j is None:
                noise, _, step, flags = rng.move(n_c, 0, n_d, n_cat)
                cont, disc = xi + noise, ci
            else:
                d, cj = conts[j] - xi, codes[j]
                differ = (ci != cj).nonzero()[0]
                r = distance(space, d, len(differ))
                beta = attractiveness(config.beta0, gamma, r)
                noise, u, step, flags = rng.move(n_c, len(differ), n_d, n_cat)
                cont = _attract(xi, d, beta, noise)
                disc = _copy_differing(ci, cj, differ, discrete_attraction_prob(gamma, r), u)
            if n_d:
                stepped = _integer_step(disc, space.disc_lo, space.disc_hi, step)
                if n_cat:   # a categorical code keeps its pre-step value unless redrawn
                    stepped = alpha_step_categorical(np.where(is_cat, disc, stepped), cat_idx,
                                                     space.cat_sizes, flags, p_alpha, rng)
                disc = stepped
            codes[i] = disc
            conts[i] = _clip(cont, space.cont_lo, space.cont_hi)
            fitness[i] = rec.evaluate(conts[i], codes[i])

    return rec.build()


def relaxed_decode(space: SearchSpace, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a relaxed real vector back to a feasible continuous vector and
    code vector: every component is clipped to ``space.lo``/``space.hi``,
    and discrete ones round half away from zero to an integer code."""
    if len(position) != space.dim:
        raise ValueError("relaxed vector length does not match the space")
    x = _clip(position, space.lo, space.hi)
    return x[space.cont_pos], _round_codes(x[space.disc_pos])


# the settings fa reads; the others belong to famv's discrete step and schedule
_FA_SETTINGS = ("max_fe", "seed", "pop_size", "beta0", "alpha", "gamma")


def run_classical_fa(problem: ObjectiveFunction, config: FireflyConfig) -> RunTrace:
    """Continuous firefly baseline on the relaxed space.

    Positions stay continuous for the whole run; discrete dimensions are only
    decoded when the objective is evaluated.  A firefly with no brighter one
    takes a uniform random step of alpha * (U - 1/2), as in Yang's FA, so a
    flat objective still spends the whole budget.  A setting outside
    ``_FA_SETTINGS`` that is not at its default is a ValueError naming it.
    """
    own = FireflyConfig(**{name: getattr(config, name) for name in _FA_SETTINGS})
    for f in fields(FireflyConfig):
        if getattr(config, f.name) != getattr(own, f.name):
            raise ValueError(f"fa has no setting {f.name}, got {getattr(config, f.name)!r}")
    space = problem.space
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    lo, hi = space.lo, space.hi

    positions = [lo + rng.random(space.dim) * (hi - lo) for _ in range(config.pop_size)]
    fitness = [rec.evaluate(*relaxed_decode(space, pos)) for pos in positions[:config.max_fe]]

    cont_pos, disc_pos = space.cont_pos, space.disc_pos
    rng.scale(config.alpha)
    while not rec.budget.exhausted:
        for i, j in _sweep(fitness, rec.budget):
            xi = positions[i]
            noise, _, _, _ = rng.move(space.dim, 0, 0, 0)
            if j is None:
                position = xi + noise
            else:
                d = positions[j] - xi
                beta = attractiveness(config.beta0, config.gamma, math.sqrt(d.dot(d)))
                position = _attract(xi, d, beta, noise)
            # x is clipped, so rounding its discrete slots is relaxed_decode(x)
            positions[i] = x = _clip(position, lo, hi)
            fitness[i] = rec.evaluate(x[cont_pos], _round_codes(x[disc_pos]))

    return rec.build()
