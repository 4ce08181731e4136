import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famv import (Continuous, MixedSolution, SearchSpace, available_problems, get_problem,
                  run_algorithm)
from famv.core import Recorder
from famv.problems import (BEAM_ARM, BEAM_DELTA_MAX, BEAM_E, BEAM_G, BEAM_P,
                           BEAM_SIGMA_MAX, BEAM_TAU_MAX, CSD_D_MIN, CSD_DELTA_PM,
                           CSD_DELTA_W, CSD_G, CSD_L_FREE, CSD_OUTER_MAX, CSD_P_LOAD,
                           CSD_P_MAX, CSD_S, ENGINEERING_NAMES, PENALTY_M, THICKNESS_STEP,
                           _SYNTHETIC, BeamProblem, CsdProblem, Problem, SyntheticProblem,
                           VesselProblem, beam_constraints, beam_cost, csd_weight,
                           vessel_cost)


def _vessel_sol(r, length, n_shell, n_head):
    return MixedSolution(np.array([r, length]), (n_shell, n_head))


class TestVessel:
    def test_spot_value(self):
        # 3112 + 4445.25 + 316.61 + 992 with both thicknesses at 16 * 0.0625 = 1
        problem = VesselProblem()
        assert problem.raw(_vessel_sol(50.0, 100.0, 16, 16)) == \
            pytest.approx(8865.86, abs=1e-3)

    def test_feasible_point_unpenalized(self):
        problem = VesselProblem()
        sol = _vessel_sol(50.0, 100.0, 16, 16)
        assert np.all(problem.constraints(sol) <= 0.0)
        assert problem(sol) == problem.raw(sol)

    def test_length_violation_penalty(self):
        problem = VesselProblem()
        sol = _vessel_sol(50.0, 250.0, 16, 16)
        # only the length cap is violated, by exactly 10
        assert problem(sol) - problem.raw(sol) == pytest.approx(PENALTY_M * 10.0)

    def test_thicknesses_are_multiples_of_step(self):
        problem = VesselProblem()
        # 3 and 99 steps of 0.0625 are 0.1875 and 6.1875, both exact in binary
        assert problem.raw(_vessel_sol(50.0, 100.0, 3, 99)) == \
            vessel_cost(0.1875, 6.1875, 50.0, 100.0)
        # the encoding makes any other value unrepresentable
        assert problem.space.discrete[0].lo == 1
        assert problem.space.discrete[0].hi == 99


class TestBeam:
    def test_spot_value(self):
        problem = BeamProblem()
        sol = MixedSolution(np.array([1.0, 1.0, 1.0, 1.0]), ())
        assert problem.raw(sol) == pytest.approx(1.82636, abs=1e-3)

    def test_thin_weld_violates_minimum(self):
        g = beam_constraints(0.1, 5.0, 5.0, 0.5)
        assert g[4] == pytest.approx(0.025)

    def test_feasible_design_unpenalized(self):
        problem = BeamProblem()
        sol = MixedSolution(np.array([0.24, 3.5, 8.8, 0.25]), ())
        assert np.all(problem.constraints(sol) <= 0.0)
        assert problem(sol) == problem.raw(sol)

    def test_violation_count_term(self):
        problem = BeamProblem()
        sol = MixedSolution(np.array([0.1, 1.0, 1.0, 0.1]), ())
        g = problem.constraints(sol)
        violated = g[g > 0.0]
        expected = problem.raw(sol) + PENALTY_M * (violated.sum() + len(violated))
        assert problem(sol) == pytest.approx(expected)


class TestCsd:
    def _sol(self, d, d_coil, n):
        return MixedSolution(np.array([d, d_coil]), (n,))

    def test_spot_value(self):
        problem = CsdProblem()
        assert problem.raw(self._sol(0.5, 1.5, 10)) == pytest.approx(4.5, abs=1e-3)

    def test_wire_diameter_minimum(self):
        problem = CsdProblem()
        g = problem.constraints(self._sol(0.1, 1.0, 10))
        assert g[2] == pytest.approx(0.1)

    def test_low_spring_index_violates(self):
        problem = CsdProblem()
        g = problem.constraints(self._sol(0.5, 1.0, 10))  # D/d = 2 < 3
        assert g[4] > 0.0

    def test_feasible_design_unpenalized(self):
        problem = CsdProblem()
        sol = self._sol(0.283, 1.223, 10)
        assert np.all(problem.constraints(sol) <= 0.0)
        assert problem(sol) == problem.raw(sol)


class TestSynthetic:
    names = ("sphere", "elliptic", "rosenbrock", "rastrigin", "ackley",
             "griewank", "schwefel")

    @pytest.mark.parametrize("name", names)
    def test_zero_error_at_optimum(self, name):
        problem = SyntheticProblem(name, dim=10)
        assert problem(problem.optimum_solution()) == pytest.approx(0.0, abs=1e-3)

    def test_sphere_unit_offset(self):
        problem = SyntheticProblem("sphere", dim=10)
        optimum = problem.optimum_solution()
        shifted = MixedSolution(optimum.cont + np.eye(problem.space.n_c)[0],
                                optimum.disc)
        assert problem(shifted) == pytest.approx(1.0)

    def test_layout_half_integer(self):
        problem = SyntheticProblem("rastrigin", dim=50)
        assert problem.space.n_c == 25
        assert problem.space.n_d == 25

    def test_shift_is_seed_fixed(self):
        a = SyntheticProblem("ackley", dim=10, shift_seed=3)
        b = SyntheticProblem("ackley", dim=10, shift_seed=3)
        np.testing.assert_array_equal(a.shift, b.shift)

    @pytest.mark.parametrize("shift_seed", [0, 1, 7])
    def test_shift_is_not_a_run_seeds_stream(self, shift_seed):
        # a run with seed shift_seed draws default_rng(shift_seed).random;
        # the continuous half of the shift must not be an affine image of it
        problem = SyntheticProblem("sphere", dim=50, shift_seed=shift_seed)
        half = problem.space.n_c
        u = np.random.default_rng(shift_seed).random(50)[:half]
        assert abs(np.corrcoef(problem.shift[:half], u)[0, 1]) < 0.9

    def test_optimum_is_feasible(self):
        problem = SyntheticProblem("griewank", dim=10)
        assert problem.optimum_solution().conforms(problem.space)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            SyntheticProblem("sphere", dim=7)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            SyntheticProblem("not-a-function")

    # sha256 of every function's values at 100 seeded points per dimension,
    # taken from the formulas that rebuilt their per-dimension constants on
    # every call; a change to any function's arithmetic shows here
    VALUES_DIGEST = "4919b2aa8f89552db12f56fe0311ce75df7f51457d950c2c8d72f16fc23daa25"

    def test_values_digest(self):
        digest = hashlib.sha256()
        for name, (fn, (lo, hi)) in _SYNTHETIC.items():
            for dim in (2, 10, 50):
                rng = np.random.default_rng(dim)
                for _ in range(100):
                    digest.update(float(fn(rng.uniform(lo, hi, dim))).hex().encode())
        assert digest.hexdigest() == self.VALUES_DIGEST


class TestAbsoluteError:
    def test_zero_at_reference(self):
        problem = SyntheticProblem("sphere", dim=10)
        assert problem.absolute_error(0.0) == 0.0

    def test_offset_reference(self):
        problem = _Degenerate(0.0, ())
        problem.reference_optimum = -1400.0
        assert problem.absolute_error(-919.0) == pytest.approx(481.0)

    def test_symmetric(self):
        problem = _Degenerate(0.0, ())
        problem.reference_optimum = 100.0
        assert problem.absolute_error(103.0) == problem.absolute_error(97.0)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in available_problems():
            problem = get_problem(name, dim=10)
            assert problem.name == name

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            get_problem("knapsack")

    def test_expected_names(self):
        names = available_problems()
        assert names[:3] == ("vessel", "beam", "csd")
        assert len(names) == 10


def test_penalty_iff_violation(rng):
    """Penalized value exceeds raw value exactly when a constraint is violated."""
    for problem in (VesselProblem(), BeamProblem(), CsdProblem()):
        from famv import random_solution
        for _ in range(200):
            sol = random_solution(problem.space, rng)
            feasible = bool(np.all(problem.constraints(sol) <= 0.0))
            assert (problem(sol) == problem.raw(sol)) == feasible


# --- the float path against the numpy formulation it replaced ---------------
# The constraint sets and the penalty as they were written with np.float64
# scalars, np.array, np.maximum, np.add.reduce and np.count_nonzero.  The
# float path must give the same bits: every golden digest rests on it.

def _reference_vessel(sol):
    d_s, d_h = THICKNESS_STEP * sol.disc[0], THICKNESS_STEP * sol.disc[1]
    r, length = sol.cont[0], sol.cont[1]
    return vessel_cost(d_s, d_h, r, length), np.array([
        -d_s + 0.0193 * r,
        -d_h + 0.00954 * r,
        -math.pi * r * r * length - (4.0 / 3.0) * math.pi * r ** 3 + 1296000.0,
        length - 240.0,
    ])


def _reference_beam(sol):
    x1, x2, x3, x4 = sol.cont
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
    return beam_cost(x1, x2, x3, x4), np.array([
        tau - BEAM_TAU_MAX,
        sigma - BEAM_SIGMA_MAX,
        x1 - x4,
        0.10471 * x1 * x1 + 0.04811 * x3 * x4 * (14.0 + x2) - 5.0,
        0.125 - x1,
        delta - BEAM_DELTA_MAX,
        BEAM_P - p_c,
    ])


def _reference_csd(sol):
    d, d_coil, n = sol.cont[0], sol.cont[1], sol.disc[0]
    ratio = d_coil / d
    denom = 4.0 * ratio - 4.0
    if abs(denom) < 1e-12:
        c_f = math.inf
    else:
        c_f = (4.0 * ratio - 1.0) / denom + 0.615 / ratio
    spring_rate = CSD_G * d ** 4 / (8.0 * n * d_coil ** 3)
    delta_max = CSD_P_MAX / spring_rate
    delta_load = CSD_P_LOAD / spring_rate
    return csd_weight(d, d_coil, n), np.array([
        8.0 * c_f * CSD_P_MAX * d_coil / (math.pi * d ** 3) - CSD_S,
        delta_max + 1.05 * (n + 2) * d - CSD_L_FREE,
        CSD_D_MIN - d,
        (d + d_coil) - CSD_OUTER_MAX,
        3.0 - ratio,
        delta_max - CSD_DELTA_PM,
        CSD_DELTA_W - delta_max + delta_load,
    ])


_REFERENCE = {"vessel": _reference_vessel, "beam": _reference_beam, "csd": _reference_csd}


def _reference_penalized(value, g, count_violations):
    if len(g) == 0:
        return value
    violation = np.maximum(0.0, g)
    value += PENALTY_M * float(np.add.reduce(violation))
    if count_violations:
        value += PENALTY_M * int(np.count_nonzero(violation))
    return value


def _bits(x) -> str:
    """The float's exact bits: tells -0.0 from 0.0, and NaN equals NaN."""
    return float(x).hex()


def _assert_matches_reference(problem, sol):
    raw, g = _REFERENCE[problem.name](sol)
    expected = _reference_penalized(raw, g, problem.count_violations)
    assert _bits(problem.raw(sol)) == _bits(raw)
    assert _bits(problem(sol)) == _bits(expected)
    got = problem.constraints(sol)
    assert got.dtype == g.dtype and np.array_equal(got, g)
    assert got.tobytes() == g.tobytes()


def _coordinates(dim):
    """A bound or any value inside it, so bounds and corners come up often."""
    if isinstance(dim, Continuous):
        return st.one_of(st.sampled_from((dim.lo, dim.hi)),
                         st.floats(dim.lo, dim.hi, allow_nan=False))
    return st.integers(dim.lo, dim.hi)


def _points(space):
    return st.tuples(*(_coordinates(d) for d in space.dims)).map(
        lambda xs: MixedSolution(np.array(xs[:space.n_c], dtype=float),
                                 tuple(xs[space.n_c:])))


@pytest.mark.parametrize("name", available_problems())
def test_no_registry_problem_defines_call(name):
    # terms is a registry class's one hook; the benchmark and the FE-count
    # test count Problem.__call__ as the objective
    cls = type(get_problem(name, dim=4))
    assert "terms" in vars(cls)
    for derived in ("__call__", "raw", "constraints", "constraint_values", "_terms",
                    "thicknesses"):
        assert derived not in vars(cls)
    assert cls.__call__ is Problem.__call__


def test_a_problem_without_terms_is_not_implemented():
    class NoTerms(Problem):
        name, reference_optimum = "no-terms", 0.0
        space = SearchSpace([Continuous(0.0, 1.0)])

    sol = MixedSolution(np.array([0.5]), ())
    for hook in (NoTerms(), NoTerms().raw, NoTerms().constraints):
        with pytest.raises(NotImplementedError):
            hook(sol)


@pytest.mark.parametrize("name", ENGINEERING_NAMES)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_float_path_matches_numpy_formulation(name, data):
    problem = get_problem(name)
    _assert_matches_reference(problem, data.draw(_points(problem.space)))


@pytest.mark.parametrize("name", ENGINEERING_NAMES)
def test_float_path_matches_numpy_formulation_at_corners(name, rng):
    """Every corner of the box, 2000 uniform points (most infeasible), and
    csd's wire equal to its coil diameter, where the Wahl factor is inf."""
    problem = get_problem(name)
    space = problem.space
    for corner in itertools.product(*((d.lo, d.hi) for d in space.dims)):
        _assert_matches_reference(problem, MixedSolution(
            np.array(corner[:space.n_c], dtype=float), tuple(corner[space.n_c:])))
    feasible = 0
    for _ in range(2000):
        sol = MixedSolution(space.cont_lo + rng.random(space.n_c) * space.cont_range,
                            tuple(int(v) for v in rng.integers(space.disc_lo,
                                                               space.disc_hi + 1)))
        _assert_matches_reference(problem, sol)
        feasible += bool(np.all(problem.constraints(sol) <= 0.0))
    assert feasible < 2000
    if name == "csd":
        sol = MixedSolution(np.array([0.5, 0.5]), (10,))
        assert problem.constraints(sol)[0] == math.inf
        _assert_matches_reference(problem, sol)


class _Degenerate(Problem):
    """Raw value ``value`` and constraint values ``g``, whatever the point."""

    name = "degenerate"
    reference_optimum = 0.0
    space = SearchSpace([Continuous(0.0, 1.0)])

    def __init__(self, value, g, count_violations=False):
        self.value, self.g, self.count_violations = value, g, count_violations

    def terms(self, sol):
        return self.value, self.g


_ODD_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, -2.0, 1e-300)


class TestDegenerateConstraints:
    _sol = MixedSolution(np.array([0.5]), ())

    @pytest.mark.parametrize("count_violations", [False, True])
    def test_fitness_equals_reference(self, count_violations):
        for n in (1, 2, 3):
            for g in itertools.product(_ODD_VALUES, repeat=n):
                for value in (0.25, -0.0, 0.0):
                    problem = _Degenerate(value, g, count_violations)
                    expected = _reference_penalized(value, np.array(g), count_violations)
                    assert _bits(problem(self._sol)) == _bits(expected), (value, g)
                    assert problem.constraints(self._sol).tobytes() == np.array(g).tobytes()

    def test_unconstrained_returns_raw(self):
        problem = _Degenerate(-0.0, ())
        assert _bits(problem(self._sol)) == _bits(-0.0)
        assert problem.constraints(self._sol).shape == (0,)

    def test_nan_is_violated_and_counted(self):
        # the NaN joins the sum, so the value is NaN whether or not the count
        # (which includes it, as np.count_nonzero did) is added
        for count_violations in (False, True):
            assert math.isnan(_Degenerate(1.0, (-1.0, math.nan), count_violations)(self._sol))
        # -inf and -0.0 are satisfied; only the NaN can add the count
        assert _Degenerate(1.0, (-math.inf, -0.0), True)(self._sol) == 1.0
        assert _Degenerate(1.0, (math.inf, -1.0), True)(self._sol) == math.inf

    def test_nan_reaches_recorder_as_inf(self):
        class HalfNaN(_Degenerate):
            def terms(self, sol):
                return self.value, (math.nan,) if sol.cont[0] > 0.5 else (-1.0,)

        recorder = Recorder(HalfNaN(1.0, None), 10)
        assert recorder.evaluate(np.array([0.9]), ()) == math.inf
        assert recorder.evaluate(np.array([0.2]), ()) == 1.0
        assert recorder.evaluate(np.array([0.7]), ()) == math.inf
        assert recorder.best.fitness == 1.0 and recorder.best.solution.cont[0] == 0.2
        assert recorder.samples == [(1, math.inf), (2, 1.0)]

        for algo in ("fa", "famv-h", "ga"):
            trace = run_algorithm(algo, HalfNaN(1.0, None), 200, 0)
            assert trace.final.fitness == 1.0
            assert trace.final.solution.cont[0] <= 0.5
            assert all(math.isfinite(best) for _, best in trace.samples[1:])
