"""Search-space and solution primitives shared by every algorithm.

A solution over a mixed search space keeps its continuous components in a
numpy vector and its discrete components (integers or category symbols) in a
tuple.  Continuous components come first, discrete second; both follow the
order in which their dimensions appear in the search space.

The engines hold only arrays: a continuous vector and an int64 *code*
vector, whose codes are an integer's value or a category's index in
``values``.  Only `SearchSpace` knows that layout (`encode`, `decode`, index
and bound arrays).  `Recorder` is the evaluation path every engine shares:
it charges one function evaluation (FE) of the run's budget, decodes the
codes and calls the objective with a `MixedSolution` of values and symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Protocol, Union

import numpy as np


@dataclass(frozen=True)
class Continuous:
    """A real-valued dimension with finite bounds, lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"continuous bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"continuous dimension needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class IntegerRange:
    """A compact (consecutive) integer dimension, lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if not all(math.isfinite(b) and b == math.floor(b) for b in (self.lo, self.hi)):
            raise ValueError(f"integer bounds must be whole numbers, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"integer dimension needs lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Categorical:
    """A finite ordered set of distinct symbols."""

    values: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("categorical dimension needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"categorical values must be distinct, got {self.values}")


DimensionSpec = Union[Continuous, IntegerRange, Categorical]


class SearchSpace:
    """Ordered list of dimension specs defining the feasible domain.

    Dimension order is stable and defines the solution layout: the k-th
    continuous dimension maps to ``cont[k]``, the k-th discrete one to
    ``disc[k]`` and code ``k``.  ``cont_pos``/``disc_pos`` are their places in
    ``dims``; ``cat_idx`` picks the categorical codes.  Every code is
    bounded by ``disc_lo``/``disc_hi`` (0 and ``cat_sizes`` - 1 for a
    categorical).  ``lo``/``hi`` bound every dimension in ``dims`` order.
    """

    def __init__(self, dims: Iterable[DimensionSpec]):
        self.dims: tuple[DimensionSpec, ...] = tuple(dims)
        if not self.dims:
            raise ValueError("search space needs at least one dimension")
        self.continuous: tuple[Continuous, ...] = tuple(
            d for d in self.dims if isinstance(d, Continuous))
        self.discrete: tuple[Union[IntegerRange, Categorical], ...] = tuple(
            d for d in self.dims if not isinstance(d, Continuous))
        self.n_c = len(self.continuous)
        self.n_d = len(self.discrete)
        self.dim = self.n_c + self.n_d
        lo = [0 if isinstance(d, Categorical) else d.lo for d in self.dims]
        hi = [len(d.values) - 1 if isinstance(d, Categorical) else d.hi for d in self.dims]
        is_cont = np.array([isinstance(d, Continuous) for d in self.dims])
        self.cont_pos, self.disc_pos = np.flatnonzero(is_cont), np.flatnonzero(~is_cont)
        self.lo, self.hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        self.cont_lo, self.cont_hi = self.lo[self.cont_pos], self.hi[self.cont_pos]
        self.cont_range = self.cont_hi - self.cont_lo
        self.disc_lo = np.array([lo[k] for k in self.disc_pos], dtype=np.int64)
        self.disc_hi = np.array([hi[k] for k in self.disc_pos], dtype=np.int64)
        is_cat = np.array([isinstance(d, Categorical) for d in self.discrete], dtype=bool)
        self.cat_idx = np.flatnonzero(is_cat)
        self.cat_sizes = self.disc_hi[self.cat_idx] + 1
        self._symbols = [(int(k), self.discrete[k].values) for k in self.cat_idx]
        self._index = [{v: i for i, v in enumerate(d.values)}
                       if isinstance(d, Categorical) else None for d in self.discrete]

    def encode(self, disc) -> np.ndarray:
        """Codes of a tuple of integer values and category symbols."""
        return np.array([v if index is None else index[v]
                         for v, index in zip(disc, self._index)], dtype=np.int64)

    def decode(self, codes: np.ndarray) -> tuple:
        """The tuple of integer values and category symbols of a code vector."""
        disc = codes.tolist()
        for k, values in self._symbols:
            disc[k] = values[disc[k]]
        return tuple(disc)

    def __repr__(self):
        return f"SearchSpace(n_c={self.n_c}, n_d={self.n_d})"


@dataclass(frozen=True)
class MixedSolution:
    """A candidate point: continuous vector plus discrete value tuple."""

    cont: np.ndarray
    disc: tuple

    def __eq__(self, other):
        if not isinstance(other, MixedSolution):
            return NotImplemented
        return np.array_equal(self.cont, other.cont) and self.disc == other.disc

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already counts as equal
        return hash(((self.cont + 0.0).tobytes(), self.disc))

    def conforms(self, space: SearchSpace) -> bool:
        """True when every component lies inside its dimension's domain."""
        if len(self.cont) != space.n_c or len(self.disc) != space.n_d:
            return False
        if np.any(self.cont < space.cont_lo) or np.any(self.cont > space.cont_hi):
            return False
        return all(isinstance(v, (int, np.integer)) and d.lo <= v <= d.hi
                   if isinstance(d, IntegerRange) else v in d.values
                   for v, d in zip(self.disc, space.discrete))


@dataclass
class Firefly:
    """A population member: a solution with its cached objective value."""

    solution: MixedSolution
    fitness: float


class EvaluationBudget:
    """Monotone counter of objective evaluations, capped at ``max_fe``."""

    def __init__(self, max_fe: int):
        if max_fe < 1:
            raise ValueError("max_fe must be positive")
        self.max_fe = int(max_fe)
        self.consumed = 0

    def consume(self) -> bool:
        """Charge one evaluation; False means exhausted (nothing charged)."""
        if self.consumed >= self.max_fe:
            return False
        self.consumed += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.consumed >= self.max_fe

    @property
    def progress(self) -> float:
        return self.consumed / self.max_fe


class ObjectiveFunction(Protocol):
    """Minimization objective tied to a space and a reference optimum."""

    name: str
    space: SearchSpace
    reference_optimum: float

    def __call__(self, solution: MixedSolution) -> float: ...


@dataclass
class RunTrace:
    """Best-so-far samples of one run: (evaluation count, best fitness)."""

    samples: list[tuple[int, float]]
    final: Firefly
    seed: int
    algorithm: str

    def __post_init__(self):
        fes = [fe for fe, _ in self.samples]
        if fes != sorted(set(fes)):
            raise ValueError("trace fe values must be strictly increasing")


class Recorder:
    """The one evaluation path of a run: charges its budget of ``max_fe``
    FE, calls the objective and keeps the best-so-far samples.

    A non-finite objective value is stored as +inf, so it never becomes the
    best while a finite value exists and never wins a comparison.
    """

    def __init__(self, problem: ObjectiveFunction, max_fe: int):
        self.problem = problem
        self.space = problem.space
        self.budget = EvaluationBudget(max_fe)
        self.best: Firefly | None = None
        self.samples: list[tuple[int, float]] = []

    def evaluate(self, cont: np.ndarray, codes: np.ndarray) -> float:
        """Charge one FE and return the objective value of the point."""
        if not self.budget.consume():
            raise RuntimeError(f"evaluation past the budget of {self.budget.max_fe} FE")
        solution = MixedSolution(cont, self.space.decode(codes))
        fitness = self.problem(solution)
        if not math.isfinite(fitness):
            fitness = math.inf
        if self.best is None or fitness < self.best.fitness:
            self.best = Firefly(solution, fitness)
            self.samples.append((self.budget.consumed, fitness))
        return fitness

    def build(self, seed: int, algorithm: str) -> RunTrace:
        if self.best is None:
            raise RuntimeError("run produced no evaluations")
        return RunTrace(self.samples, self.best, seed, algorithm)


# Up to this many discrete dimensions, one scalar draw each (about 3 us) is
# cheaper than one array-bound draw (about 14 us, even with no bounds); both
# take the same values from the stream.
_SCALAR_CODE_DRAWS = 4


def random_point(space: SearchSpace,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a uniform random continuous vector and code vector."""
    cont = space.cont_lo + rng.random(space.n_c) * space.cont_range
    if space.n_d > _SCALAR_CODE_DRAWS:
        return cont, rng.integers(space.disc_lo, space.disc_hi + 1)
    return cont, np.array([rng.integers(lo, hi + 1) for lo, hi
                           in zip(space.disc_lo.tolist(), space.disc_hi.tolist())], dtype=np.int64)


def random_solution(space: SearchSpace, rng: np.random.Generator) -> MixedSolution:
    """Draw a uniform random solution from the space."""
    cont, codes = random_point(space, rng)
    return MixedSolution(cont, space.decode(codes))
