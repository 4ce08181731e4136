import numpy as np
import pytest

from famv import MixedSolution, available_problems, get_problem
from famv.problems import (PENALTY_M, BeamProblem, CsdProblem, SyntheticProblem,
                           VesselProblem, beam_constraints, synthetic)


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
        d_s, d_h = VesselProblem.thicknesses(_vessel_sol(50.0, 100.0, 3, 99))
        assert d_s == pytest.approx(0.1875)
        assert d_h == pytest.approx(6.1875)
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
        problem = synthetic(name, dim=10)
        assert problem(problem.optimum_solution()) == pytest.approx(0.0, abs=1e-3)

    def test_sphere_unit_offset(self):
        problem = synthetic("sphere", dim=10)
        optimum = problem.optimum_solution()
        shifted = MixedSolution(optimum.cont + np.eye(problem.space.n_c)[0],
                                optimum.disc)
        assert problem(shifted) == pytest.approx(1.0)

    def test_layout_half_integer(self):
        problem = synthetic("rastrigin", dim=50)
        assert problem.space.n_c == 25
        assert problem.space.n_d == 25

    def test_shift_is_seed_fixed(self):
        a = synthetic("ackley", dim=10, shift_seed=3)
        b = synthetic("ackley", dim=10, shift_seed=3)
        np.testing.assert_array_equal(a.shift, b.shift)

    @pytest.mark.parametrize("shift_seed", [0, 1, 7])
    def test_shift_is_not_a_run_seeds_stream(self, shift_seed):
        # a run with seed shift_seed draws default_rng(shift_seed).random;
        # the continuous half of the shift must not be an affine image of it
        problem = synthetic("sphere", dim=50, shift_seed=shift_seed)
        half = problem.space.n_c
        u = np.random.default_rng(shift_seed).random(50)[:half]
        assert abs(np.corrcoef(problem.shift[:half], u)[0, 1]) < 0.9

    def test_optimum_is_feasible(self):
        problem = synthetic("griewank", dim=10)
        assert problem.optimum_solution().conforms(problem.space)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            synthetic("sphere", dim=7)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            SyntheticProblem("not-a-function")


class TestAbsoluteError:
    def test_zero_at_reference(self):
        problem = synthetic("sphere", dim=10)
        assert problem.absolute_error(0.0) == 0.0

    def test_offset_reference(self):
        problem = VesselProblem(reference_optimum=-1400.0)
        assert problem.absolute_error(-919.0) == pytest.approx(481.0)

    def test_symmetric(self):
        problem = VesselProblem(reference_optimum=100.0)
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
