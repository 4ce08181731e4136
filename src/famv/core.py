"""Search-space and solution primitives shared by every algorithm.

A solution over a mixed search space keeps its continuous components in a
numpy vector and its discrete components (integer values or category
symbols) in a tuple.  Continuous components come first, discrete second;
both follow the order in which their dimensions appear in the search space.

The engines hold a continuous vector and an int64 *code* vector, whose
codes are an integer's value or a category's index in ``values``.  Only
`SearchSpace` knows that layout (index and bound arrays), and its `decode`
turns codes into the tuple of values and symbols.  `Recorder` is the
evaluation path every engine shares: `Recorder.evaluate` takes a point's
continuous vector and value tuple, charges one function evaluation (FE) of
the run's budget and calls the objective with a `MixedSolution`;
`Recorder.evaluate_rows` decodes a batch of code rows and evaluates each row
in order.  famv keeps the codes of a small integer-only space as a tuple of
ints, which is already the value tuple, and decodes nothing.
"""

from __future__ import annotations

import math
import numbers
import operator
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
    """A compact (consecutive) integer dimension of at most 2**53 values:
    -2**52 <= lo <= hi <= 2**52 and hi - lo < 2**53."""

    lo: int
    hi: int

    def __post_init__(self):
        if not all(math.isfinite(b) and b == math.floor(b) for b in (self.lo, self.hi)):
            raise ValueError(f"integer bounds must be whole numbers, got [{self.lo}, {self.hi}]")
        # steps round v + 1/2 in float64, which is exact while |v| <= 2**52, and
        # a draw floor(u * size) reaches every code only while size <= 2**53
        if not (-2 ** 52 <= self.lo <= self.hi <= 2 ** 52 and self.hi - self.lo < 2 ** 53):
            raise ValueError(f"integer dimension needs -2**52 <= lo <= hi <= 2**52 "
                             f"and hi - lo < 2**53, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Categorical:
    """A finite ordered set of distinct symbols, kept as a tuple whatever
    iterable of them is given.  A bare str or bytes, whose items would be
    its letters, or a symbol that is not hashable is a TypeError."""

    values: tuple[Hashable, ...]

    def __post_init__(self):
        if isinstance(self.values, (str, bytes)):
            raise TypeError(f"categorical values must be a collection of symbols, "
                            f"not one {type(self.values).__name__}, got {self.values!r}")
        try:
            object.__setattr__(self, "values", tuple(self.values))
            distinct = len(set(self.values))
        except TypeError:
            raise TypeError(f"categorical values must be an iterable of hashable symbols, "
                            f"got {self.values!r}") from None
        if len(self.values) == 0:
            raise ValueError("categorical dimension needs at least one value")
        if distinct != len(self.values):
            raise ValueError(f"categorical values must be distinct, got {self.values}")


DimensionSpec = Union[Continuous, IntegerRange, Categorical]


class SearchSpace:
    """Ordered list of dimension specs defining the feasible domain.

    Dimension order is stable and defines the solution layout: the k-th
    continuous dimension maps to ``cont[k]``, the k-th discrete one to
    ``disc[k]`` and code ``k``.  ``cont_pos``/``disc_pos`` are their places in
    ``dims``; ``cat_idx`` picks the categorical codes.  Code k lies in
    [``disc_lo[k]``, ``disc_hi[k]``] and takes ``disc_sizes[k]`` values
    (``cat_sizes`` for the categorical ones).  ``lo``/``hi`` bound every
    dimension in ``dims`` order.  A dimension that is not a `Continuous`,
    `IntegerRange` or `Categorical` is a TypeError naming its place.
    """

    def __init__(self, dims: Iterable[DimensionSpec]):
        self.dims: tuple[DimensionSpec, ...] = tuple(dims)
        if not self.dims:
            raise ValueError("search space needs at least one dimension")
        for k, d in enumerate(self.dims):
            if not isinstance(d, (Continuous, IntegerRange, Categorical)):
                raise TypeError(f"dimension {k} must be a Continuous, IntegerRange or "
                                f"Categorical, got {d!r}")
        self.discrete: tuple[Union[IntegerRange, Categorical], ...] = tuple(
            d for d in self.dims if not isinstance(d, Continuous))
        self.dim = len(self.dims)
        self.n_d = len(self.discrete)
        self.n_c = self.dim - self.n_d
        lo = [0 if isinstance(d, Categorical) else d.lo for d in self.dims]
        hi = [len(d.values) - 1 if isinstance(d, Categorical) else d.hi for d in self.dims]
        is_cont = np.array([isinstance(d, Continuous) for d in self.dims])
        self.cont_pos, self.disc_pos = np.flatnonzero(is_cont), np.flatnonzero(~is_cont)
        self.lo, self.hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        self.cont_lo, self.cont_hi = self.lo[self.cont_pos], self.hi[self.cont_pos]
        self.cont_range = self.cont_hi - self.cont_lo
        self.disc_lo = np.array([lo[k] for k in self.disc_pos], dtype=np.int64)
        self.disc_hi = np.array([hi[k] for k in self.disc_pos], dtype=np.int64)
        self.cat_idx = np.flatnonzero([isinstance(d, Categorical) for d in self.discrete])
        self.disc_sizes = self.disc_hi - self.disc_lo + 1
        self.cat_sizes = self.disc_sizes[self.cat_idx]
        self._symbols = [(int(k), self.discrete[k].values) for k in self.cat_idx]

    def decode(self, codes: np.ndarray) -> tuple:
        """The tuple of integer values and category symbols of a code vector."""
        disc = codes.tolist()
        for k, values in self._symbols:
            disc[k] = values[disc[k]]
        return tuple(disc)

    def decode_rows(self, codes: np.ndarray) -> list[tuple]:
        """`decode` of each row of an ``(n, n_d)`` code matrix, from one
        ``tolist()``."""
        rows = codes.tolist()
        for disc in rows:
            for k, values in self._symbols:
                disc[k] = values[disc[k]]
        return [tuple(disc) for disc in rows]

    def __repr__(self):
        return f"SearchSpace(n_c={self.n_c}, n_d={self.n_d})"


@dataclass(slots=True, eq=False)
class MixedSolution:
    """A candidate point: continuous vector plus discrete value tuple.

    Slotted and not frozen, because the `Recorder` builds one per FE and a
    frozen dataclass's ``__init__`` costs about 2.5 times a plain one's, so
    ``cont`` and ``disc`` can be rebound.  Equality compares values, and the
    hash counts -0.0 equal to 0.0, as equality does."""

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
        if self.cont.shape != (space.n_c,) or len(self.disc) != space.n_d:
            return False
        # written as "inside" so that a NaN component fails
        if not np.all((self.cont >= space.cont_lo) & (self.cont <= space.cont_hi)):
            return False
        return all(isinstance(v, (int, np.integer)) and d.lo <= v <= d.hi
                   if isinstance(d, IntegerRange) else v in d.values
                   for v, d in zip(self.disc, space.discrete))


@dataclass
class Firefly:
    """A run's best point: a solution with its objective value."""

    solution: MixedSolution
    fitness: float


def check_integer(name: str, value, least: int) -> int:
    """``value`` as an int: a bool or a value without ``__index__`` (a
    float, a string, None) is a TypeError and one below ``least`` a
    ValueError, each naming the setting ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_real(name: str, value):
    """``value`` if it is a real number: a bool or a value that is not
    `numbers.Real` (a string, None) is a TypeError naming the setting
    ``name``.  Ints and numpy floats pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return value


class EvaluationBudget:
    """Monotone counter of objective evaluations, capped at ``max_fe``, an
    integer >= 1 checked by name as a config setting is."""

    def __init__(self, max_fe: int):
        self.max_fe = check_integer("max_fe", max_fe, 1)
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
    """Best-so-far samples of one run: an (evaluation count, best fitness)
    pair at each improvement, and the ``final`` best point."""

    samples: list[tuple[int, float]]
    final: Firefly

    def __post_init__(self):
        if not self.samples:
            raise ValueError("trace needs at least one sample")
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

    def evaluate(self, cont: np.ndarray, disc: tuple) -> float:
        """The one per-FE step: charge the FE (a RuntimeError past the
        budget, before the objective call), call the objective with a
        `MixedSolution` of ``cont`` and the value tuple ``disc``, record a
        new best and return the objective value."""
        budget = self.budget
        if not budget.consume():
            raise RuntimeError(f"evaluation past the budget of {budget.max_fe} FE")
        solution = MixedSolution(cont, disc)
        fitness = self.problem(solution)
        if not math.isfinite(fitness):
            fitness = math.inf
        best = self.best
        if best is None or fitness < best.fitness:
            self.best = Firefly(solution, fitness)
            self.samples.append((budget.consumed, fitness))
        return fitness

    def evaluate_rows(self, cont: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Evaluate the rows of an ``(n, n_c)`` and an ``(n, n_d)`` code
        matrix in order, one FE each, as `evaluate` would each row and its
        decoded codes, and return their objective values.  A row past the
        budget raises before its objective call, after the rows before it
        were evaluated."""
        step = self.evaluate
        return np.array([step(x, disc)
                         for x, disc in zip(cont, self.space.decode_rows(codes))])

    def build(self) -> RunTrace:
        if self.best is None:
            raise RuntimeError("run produced no evaluations")
        return RunTrace(self.samples, self.best)


def random_solution(space: SearchSpace, rng: np.random.Generator) -> MixedSolution:
    """Draw a uniform random solution from ``space.dim`` doubles of
    ``rng.random``, continuous first; a code is
    ``disc_lo + floor(u * disc_sizes)``, below its bound for every u < 1."""
    u = rng.random(space.dim)
    cont = space.cont_lo + u[:space.n_c] * space.cont_range
    codes = space.disc_lo + (u[space.n_c:] * space.disc_sizes).astype(np.int64)
    return MixedSolution(cont, space.decode(codes))
