"""Benchmark problems: three penalty-handled engineering designs and a family
of shifted synthetic functions with half the dimensions forced to integers.

Engineering reference optima are best-known literature values; they only
feed absolute-error reporting.

A `Problem` reads a point as one row of floats in ``space.dims`` order, an
integer's value as a whole float: a list of Python floats from the firefly
engines' scalar form, a float64 vector from their array form and from ga.
The engines hand each FE's row to `Problem.__call__` and build no
`MixedSolution` for it; a public caller may hand a `MixedSolution`, which is
turned into its row once.  An engineering problem's ``terms`` reads the row
as Python floats, ``tolist()`` of a vector, and hands them to its cost and
constraint kernels, which return Python floats; a synthetic one subtracts
its shift from the row.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .core import (Categorical, Continuous, IntegerRange, MixedSolution, SearchSpace,
                   check_integer)

PENALTY_M = 1.0e6
SYNTHETIC_DIM = 50      # the default dimension of a synthetic problem


class Problem:
    """Minimization objective over a mixed space, penalty-wrapped when
    constrained: PENALTY_M times the summed violation, plus PENALTY_M per
    violated constraint when ``count_violations`` is set; a NaN g counts
    as violated.  A subclass defines one hook, ``terms``; ``raw``,
    ``constraints`` and the penalty derive from it.  Each takes a point as
    its row of floats (the module docstring) or as a `MixedSolution`.  No
    subclass defines ``__call__``: objective calls are counted there."""

    name: str
    space: SearchSpace
    reference_optimum: float
    count_violations = False

    def terms(self, x) -> tuple[float, tuple[float, ...]]:
        """``(raw value, g values)`` from one read of the row ``x``, which
        it must not write; the g values are floats, feasible iff all g <= 0,
        empty for unconstrained."""
        raise NotImplementedError

    def _row_of(self, point):
        """``point``'s row: a row as it is, a `MixedSolution` as a new one."""
        if not isinstance(point, MixedSolution):
            return point
        takes_rows(self)   # a TypeError where a dimension is categorical
        return self.space.rows(point.cont, point.disc)

    def raw(self, point) -> float:
        """The objective without the penalty."""
        return self.terms(self._row_of(point))[0]

    def constraints(self, point) -> np.ndarray:
        """The g values as an array."""
        return np.array(self.terms(self._row_of(point))[1], dtype=float)

    def __call__(self, point) -> float:
        value, g = self.terms(self._row_of(point))
        if not g:
            return value
        # summed left to right, as numpy's reduction adds fewer than 8 terms
        violation, violated = 0.0, 0
        for v in g:
            if not v <= 0.0:
                violation += v
                violated += 1
        value += PENALTY_M * violation
        if self.count_violations:
            value += PENALTY_M * violated
        return value

    def absolute_error(self, achieved: float) -> float:
        """|achieved - reference optimum|."""
        return abs(achieved - self.reference_optimum)


def takes_rows(objective) -> bool:
    """Whether the engines hand ``objective`` rows of floats: true for a
    `Problem`, false for a plain objective, which gets a `MixedSolution`.
    A float cannot hold a symbol, so a `Problem` over a `Categorical`
    dimension is a TypeError naming its place, raised before any FE."""
    if not isinstance(objective, Problem):
        return False
    for k, d in enumerate(objective.space.dims):
        if isinstance(d, Categorical):
            raise TypeError(f"dimension {k} is a Categorical, which a Problem's row of "
                            f"floats cannot hold; write an objective over symbols as a "
                            f"plain __call__(sol)")
    return True


# --- pressure vessel -------------------------------------------------------

THICKNESS_STEP = 0.0625


def vessel_cost(d_s: float, d_h: float, r: float, length: float) -> float:
    """Fabrication cost of the cylindrical vessel."""
    return (0.6224 * r * d_s * length + 1.7781 * d_h * r * r
            + 3.1661 * d_s * d_s * length + 19.84 * d_s * d_s * r)


def vessel_constraints(d_s: float, d_h: float, r: float, length: float) -> tuple[float, ...]:
    return (-d_s + 0.0193 * r,
            -d_h + 0.00954 * r,
            -math.pi * r * r * length - (4.0 / 3.0) * math.pi * r ** 3 + 1296000.0,
            length - 240.0)


class VesselProblem(Problem):
    """Shell/head thicknesses are multiples of 0.0625, encoded as integer
    multiplier counts so the grid is feasible by construction."""

    name = "vessel"
    reference_optimum = 6059.714335

    def __init__(self):
        self.space = SearchSpace([
            Continuous(10.0, 200.0),   # inner radius
            Continuous(10.0, 200.0),   # cylinder length
            IntegerRange(1, 99),       # shell thickness / 0.0625
            IntegerRange(1, 99),       # head thickness / 0.0625
        ])

    def terms(self, x) -> tuple[float, tuple[float, ...]]:
        r, length, n_shell, n_head = x.tolist() if isinstance(x, np.ndarray) else x
        d_s, d_h = THICKNESS_STEP * n_shell, THICKNESS_STEP * n_head
        return vessel_cost(d_s, d_h, r, length), vessel_constraints(d_s, d_h, r, length)


# --- welded beam -----------------------------------------------------------

BEAM_P = 6000.0
BEAM_ARM = 14.0
BEAM_E = 30.0e6
BEAM_G = 12.0e6
BEAM_TAU_MAX = 13600.0
BEAM_SIGMA_MAX = 30000.0
BEAM_DELTA_MAX = 0.25


def beam_cost(x1: float, x2: float, x3: float, x4: float) -> float:
    return 1.10471 * x1 * x1 * x2 + 0.04811 * x3 * x4 * (14.0 + x2)


def beam_constraints(x1: float, x2: float, x3: float, x4: float) -> tuple[float, ...]:
    tau_p = BEAM_P / (math.sqrt(2.0) * x1 * x2)
    moment = BEAM_P * (BEAM_ARM + x2 / 2.0)
    radius = math.sqrt(x2 * x2 / 4.0 + ((x1 + x3) / 2.0) ** 2)
    polar = 2.0 * (math.sqrt(2.0) * x1 * x2
                   * (x2 * x2 / 12.0 + ((x1 + x3) / 2.0) ** 2))
    tau_pp = moment * radius / polar
    tau = math.sqrt(tau_p * tau_p + 2.0 * tau_p * tau_pp * x2 / (2.0 * radius)
                    + tau_pp * tau_pp)
    sigma = 6.0 * BEAM_P * BEAM_ARM / (x4 * x3 * x3)
    delta = 4.0 * BEAM_P * BEAM_ARM ** 3 / (BEAM_E * x3 ** 3 * x4)
    p_c = (4.013 * BEAM_E * math.sqrt(x3 * x3 * x4 ** 6 / 36.0) / BEAM_ARM ** 2
           * (1.0 - x3 / (2.0 * BEAM_ARM) * math.sqrt(BEAM_E / (4.0 * BEAM_G))))
    return (tau - BEAM_TAU_MAX,
            sigma - BEAM_SIGMA_MAX,
            x1 - x4,
            0.10471 * x1 * x1 + 0.04811 * x3 * x4 * (14.0 + x2) - 5.0,
            0.125 - x1,
            delta - BEAM_DELTA_MAX,
            BEAM_P - p_c)


class BeamProblem(Problem):
    name = "beam"
    reference_optimum = 1.724852
    count_violations = True

    def __init__(self):
        self.space = SearchSpace([
            Continuous(0.1, 2.0),    # weld thickness
            Continuous(0.1, 10.0),   # weld length
            Continuous(0.1, 10.0),   # beam height
            Continuous(0.1, 2.0),    # beam thickness
        ])

    def terms(self, x) -> tuple[float, tuple[float, ...]]:
        x1, x2, x3, x4 = x.tolist() if isinstance(x, np.ndarray) else x
        return beam_cost(x1, x2, x3, x4), beam_constraints(x1, x2, x3, x4)


# --- coil spring -----------------------------------------------------------

CSD_P_MAX = 1000.0      # maximal working load
CSD_S = 189000.0        # allowable shear stress
CSD_L_FREE = 14.0       # maximal free length
CSD_D_MIN = 0.2         # minimal wire diameter
CSD_OUTER_MAX = 3.0     # maximal outer diameter
CSD_DELTA_PM = 6.0      # allowable deflection under load
CSD_P_LOAD = 300.0      # preload
CSD_DELTA_W = 1.25      # working deflection
CSD_G = 11.5e6          # shear modulus


def csd_weight(d: float, d_coil: float, n: float) -> float:
    return (n + 2) * d * d * d_coil


def csd_constraints(d: float, d_coil: float, n: float) -> tuple[float, ...]:
    ratio = d_coil / d
    denom = 4.0 * ratio - 4.0
    c_f = math.inf if abs(denom) < 1e-12 else (4.0 * ratio - 1.0) / denom + 0.615 / ratio
    spring_rate = CSD_G * d ** 4 / (8.0 * n * d_coil ** 3)
    delta_max = CSD_P_MAX / spring_rate
    delta_load = CSD_P_LOAD / spring_rate
    return (8.0 * c_f * CSD_P_MAX * d_coil / (math.pi * d ** 3) - CSD_S,
            delta_max + 1.05 * (n + 2) * d - CSD_L_FREE,
            CSD_D_MIN - d,
            (d + d_coil) - CSD_OUTER_MAX,
            3.0 - ratio,
            delta_max - CSD_DELTA_PM,
            CSD_DELTA_W - delta_max + delta_load)


class CsdProblem(Problem):
    name = "csd"
    reference_optimum = 2.658559

    def __init__(self):
        self.space = SearchSpace([
            Continuous(0.05, 2.0),   # wire diameter
            Continuous(0.25, 3.0),   # mean coil diameter
            IntegerRange(1, 70),     # number of active coils
        ])

    def terms(self, x) -> tuple[float, tuple[float, ...]]:
        d, d_coil, n = x.tolist() if isinstance(x, np.ndarray) else x
        return csd_weight(d, d_coil, n), csd_constraints(d, d_coil, n)


# --- shifted synthetic family ----------------------------------------------

# 0-d arrays: numpy 2 is slower on a Python-float operand
_ONE, _TEN, _HUNDRED, _TWO_PI = (np.array(v) for v in (1.0, 10.0, 100.0, 2.0 * math.pi))
_SCHWEFEL_SHIFT = np.array(420.968746)


@cache
def _per_dimension(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Elliptic's weights and griewank's divisors at dimension ``d``, read-only."""
    weights, divisors = np.power(1e6, np.arange(d) / max(d - 1, 1)), np.sqrt(np.arange(1, d + 1))
    weights.flags.writeable = divisors.flags.writeable = False
    return weights, divisors


def _sphere(z: np.ndarray) -> float:
    return float(np.add.reduce(z * z))


def _elliptic(z: np.ndarray) -> float:
    return float(np.add.reduce(_per_dimension(len(z))[0] * z * z))


def _rosenbrock(z: np.ndarray) -> float:
    z = z + _ONE  # optimum moved to the origin
    head = z[:-1]
    return float(np.add.reduce(_HUNDRED * np.square(z[1:] - np.square(head))
                               + np.square(head - _ONE)))


def _rastrigin(z: np.ndarray) -> float:
    return float(np.add.reduce(z * z - _TEN * np.cos(_TWO_PI * z) + _TEN))


def _ackley(z: np.ndarray) -> float:
    d = len(z)
    return float(-20.0 * math.exp(-0.2 * math.sqrt(np.add.reduce(z * z) / d))
                 - math.exp(np.add.reduce(np.cos(_TWO_PI * z)) / d) + 20.0 + math.e)


def _griewank(z: np.ndarray) -> float:
    divisors = _per_dimension(len(z))[1]
    return float(np.add.reduce(z * z) / 4000.0 - np.multiply.reduce(np.cos(z / divisors)) + 1.0)


def _schwefel(z: np.ndarray) -> float:
    z = z + _SCHWEFEL_SHIFT
    return float(418.9829 * len(z) - np.add.reduce(z * np.sin(np.sqrt(np.abs(z)))))


_SYNTHETIC = {
    # name -> (formula on z = x - shift, per-dimension bounds)
    "sphere": (_sphere, (-100.0, 100.0)),
    "elliptic": (_elliptic, (-100.0, 100.0)),
    "rosenbrock": (_rosenbrock, (-30.0, 30.0)),
    "rastrigin": (_rastrigin, (-5.12, 5.12)),
    "ackley": (_ackley, (-32.768, 32.768)),
    "griewank": (_griewank, (-600.0, 600.0)),
    "schwefel": (_schwefel, (-500.0, 500.0)),
}


class SyntheticProblem(Problem):
    """Canonical function evaluated on x - shift; the first half of the
    dimensions stays continuous, the second half is restricted to integers.

    The shift vector is drawn once from the inner 80% of the domain, with
    its integer half pre-rounded so the optimum is feasible, from
    ``shift_seed`` with spawn key 1: a stream that no run seed gives.
    """

    def __init__(self, name: str, dim: int = SYNTHETIC_DIM, shift_seed: int = 0):
        if name not in _SYNTHETIC:
            raise KeyError(f"unknown synthetic function {name!r}")
        if check_integer("dim", dim, 2) % 2 != 0:
            raise ValueError(f"dim must be even, got {dim}")
        self.name = name
        fn, (lo, hi) = _SYNTHETIC[name]
        self._fn = fn
        half = dim // 2
        int_lo, int_hi = math.ceil(lo), math.floor(hi)
        self.space = SearchSpace(
            [Continuous(lo, hi)] * half + [IntegerRange(int_lo, int_hi)] * half)
        rng = np.random.default_rng(np.random.SeedSequence(shift_seed, spawn_key=(1,)))
        shift = rng.uniform(0.8 * lo, 0.8 * hi, size=dim)
        shift[half:] = np.clip(np.round(shift[half:]), int_lo, int_hi)
        self.shift = shift
        self.reference_optimum = 0.0

    def optimum_solution(self) -> MixedSolution:
        half = self.space.n_c
        return MixedSolution(self.shift[:half].copy(),
                             tuple(int(v) for v in self.shift[half:]))

    def terms(self, x) -> tuple[float, tuple[float, ...]]:
        return self._fn(x - self.shift), ()


_ENGINEERING = {"vessel": VesselProblem, "beam": BeamProblem, "csd": CsdProblem}
ENGINEERING_NAMES = tuple(_ENGINEERING)


def get_problem(name: str, dim: int = SYNTHETIC_DIM) -> Problem:
    """Resolve a problem by registry name; ``dim`` sizes a synthetic one."""
    if name in _ENGINEERING:
        return _ENGINEERING[name]()
    if name in _SYNTHETIC:
        return SyntheticProblem(name, dim)
    raise KeyError(f"unknown problem {name!r}; known: {', '.join(available_problems())}")


def available_problems() -> tuple[str, ...]:
    """Every registry name: the engineering designs, then the synthetic
    functions."""
    return ENGINEERING_NAMES + tuple(_SYNTHETIC)
