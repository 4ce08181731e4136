import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famv import (Categorical, Continuous, EvaluationBudget, Firefly,
                  IntegerRange, MixedSolution, RunTrace, SearchSpace,
                  random_solution)
from famv import core
from famv.core import Recorder


def _hypothesis_space():
    return SearchSpace([
        Continuous(-5.0, 5.0),
        Continuous(0.0, 10.0),
        IntegerRange(0, 9),
        Categorical(("a", "b", "c")),
    ])


class TestDimensionSpecs:
    def test_continuous_requires_lo_below_hi(self):
        with pytest.raises(ValueError):
            Continuous(1.0, 1.0)
        with pytest.raises(ValueError):
            Continuous(2.0, 1.0)

    def test_continuous_requires_finite_bounds(self):
        with pytest.raises(ValueError):
            Continuous(0.0, float("inf"))

    def test_integer_range_allows_singleton(self):
        dim = IntegerRange(5, 5)
        assert dim.lo == dim.hi == 5
        with pytest.raises(ValueError):
            IntegerRange(6, 5)

    def test_integer_range_requires_whole_bounds(self):
        for lo, hi in ((0.5, 3.5), (0, 3.5), (0, float("inf")), (float("nan"), 2)):
            with pytest.raises(ValueError, match="whole numbers"):
                IntegerRange(lo, hi)
        assert IntegerRange(np.int64(1), 3).hi == 3
        assert IntegerRange(1.0, 3.0).lo == 1

    def test_categorical_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Categorical(())
        with pytest.raises(ValueError):
            Categorical(("a", "a"))


class TestSearchSpace:
    def test_layout_split(self, mixed_space):
        assert mixed_space.n_c == 2
        assert mixed_space.n_d == 2
        assert mixed_space.dim == 4
        np.testing.assert_allclose(mixed_space.cont_lo, [-5.0, 0.0])
        np.testing.assert_allclose(mixed_space.cont_hi, [5.0, 10.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SearchSpace([])

    def test_code_layout(self):
        space = SearchSpace([IntegerRange(-2, 4), Continuous(0.0, 1.0),
                             Categorical(("x", "y", "z")), IntegerRange(7, 7)])
        np.testing.assert_array_equal(space.cont_pos, [1])
        np.testing.assert_array_equal(space.disc_pos, [0, 2, 3])
        np.testing.assert_array_equal(space.cat_idx, [1])
        np.testing.assert_array_equal(space.disc_lo, [-2, 0, 7])
        np.testing.assert_array_equal(space.disc_hi, [4, 2, 7])
        np.testing.assert_array_equal(space.cat_sizes, [3])

    def test_codes_round_trip(self, mixed_space):
        codes = mixed_space.encode((7, "c"))
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, [7, 2])
        disc = mixed_space.decode(codes)
        assert disc == (7, "c") and type(disc[0]) is int


class TestMixedSolution:
    def test_equality_and_hash(self):
        a = MixedSolution(np.array([1.0, 2.0]), (3, "x"))
        b = MixedSolution(np.array([1.0, 2.0]), (3, "x"))
        c = MixedSolution(np.array([1.0, 2.5]), (3, "x"))
        assert a == b and hash(a) == hash(b)
        assert a != c
        zero, negative_zero = (MixedSolution(np.array([z]), (1,)) for z in (0.0, -0.0))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert len({zero, negative_zero}) == 1

    def test_conforms(self, mixed_space):
        good = MixedSolution(np.array([0.0, 5.0]), (3, "b"))
        assert good.conforms(mixed_space)
        assert not MixedSolution(np.array([9.0, 5.0]), (3, "b")).conforms(mixed_space)
        assert not MixedSolution(np.array([0.0, 5.0]), (3, "z")).conforms(mixed_space)
        assert not MixedSolution(np.array([0.0]), (3, "b")).conforms(mixed_space)


class TestRandomSolution:
    def test_continuous_within_bounds(self, rng):
        space = SearchSpace([Continuous(0.0, 1.0)])
        for _ in range(100):
            sol = random_solution(space, rng)
            assert 0.0 <= sol.cont[0] <= 1.0

    def test_categorical_uniform(self, rng):
        space = SearchSpace([Categorical(("a", "b", "c"))])
        n = 3000
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(n):
            counts[random_solution(space, rng).disc[0]] += 1
        tol = 3.0 / np.sqrt(n)
        for symbol in counts:
            assert abs(counts[symbol] / n - 1.0 / 3.0) < tol

    def test_singleton_integer_range(self, rng):
        space = SearchSpace([IntegerRange(5, 5)])
        assert all(random_solution(space, rng).disc[0] == 5 for _ in range(20))

    def test_identical_seeds_identical_populations(self, mixed_space):
        pop_a = [random_solution(mixed_space, np.random.default_rng(7))
                 for _ in range(1)]
        pop_b = [random_solution(mixed_space, np.random.default_rng(7))
                 for _ in range(1)]
        assert pop_a == pop_b

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_output_always_conforms(self, seed):
        space = _hypothesis_space()
        sol = random_solution(space, np.random.default_rng(seed))
        assert sol.conforms(space)

    @pytest.mark.parametrize("n_d", [0, 1, 4, 5, 7])
    def test_scalar_code_draws_match_one_array_draw(self, monkeypatch, n_d):
        # small spaces draw one scalar per code; the array-bound draw is the
        # reference, and both must leave the stream in the same place
        dims = [Continuous(-1.0, 1.0)] + [IntegerRange(-k, 3 * k) for k in range(n_d - 1)]
        if n_d:
            dims.append(Categorical(("a", "b", "c")))
        space = SearchSpace(dims)
        drawn = []
        for scalar_up_to in (core._SCALAR_CODE_DRAWS, -1):
            monkeypatch.setattr(core, "_SCALAR_CODE_DRAWS", scalar_up_to)
            rng = np.random.default_rng(11)
            sols = [random_solution(space, rng) for _ in range(20)]
            drawn.append((sols, rng.random()))
        assert drawn[0] == drawn[1]


class TestRunTrace:
    def test_rejects_unordered_samples(self):
        final = Firefly(MixedSolution(np.zeros(1), ()), 0.5)
        with pytest.raises(ValueError):
            RunTrace([(2, 1.0), (1, 0.5)], final, 0, "x")
        with pytest.raises(ValueError):
            RunTrace([(1, 1.0), (1, 0.5)], final, 0, "x")


class TestRecorder:
    SPACE = SearchSpace([Continuous(0.0, 1.0), Categorical(("a", "b"))])

    def _recorder(self, values, max_fe=10):
        """A recorder whose objective returns ``values`` in turn, and the
        list of solutions the objective was called with."""
        values, calls = iter(values), []

        class Objective:
            space = self.SPACE

            def __call__(self, sol):
                calls.append(sol)
                return next(values)

        return Recorder(Objective(), max_fe), calls

    def test_no_evaluation_is_an_error(self):
        recorder, _ = self._recorder([])
        with pytest.raises(RuntimeError):
            recorder.build(0, "x")

    def test_non_finite_values_are_inf_and_never_best(self):
        recorder, _ = self._recorder([math.nan, 3.0, -math.inf, math.nan, 2.0])
        stored = [recorder.evaluate(np.zeros(1), np.array([0])) for _ in range(5)]
        assert stored == [math.inf, 3.0, math.inf, math.inf, 2.0]
        assert recorder.budget.consumed == 5
        trace = recorder.build(0, "x")
        assert trace.samples == [(1, math.inf), (2, 3.0), (5, 2.0)]
        assert trace.final.fitness == 2.0

    def test_objective_gets_decoded_symbols(self):
        recorder, calls = self._recorder([1.0])
        recorder.evaluate(np.array([0.25]), np.array([1]))
        assert calls == [MixedSolution(np.array([0.25]), ("b",))]
        assert recorder.best.solution == calls[0]

    def test_evaluation_past_budget_raises(self):
        recorder, calls = self._recorder([1.0, 2.0, 3.0], max_fe=2)
        for _ in range(2):
            recorder.evaluate(np.zeros(1), np.array([0]))
        assert recorder.budget.exhausted
        with pytest.raises(RuntimeError, match="past the budget"):
            recorder.evaluate(np.zeros(1), np.array([0]))
        assert len(calls) == 2 and recorder.budget.consumed == 2


class TestEvaluationBudget:
    def test_consume_counts(self):
        budget = EvaluationBudget(10)
        assert budget.consume()
        assert budget.consumed == 1
        assert not budget.exhausted

    def test_exhaustion_without_overshoot(self):
        budget = EvaluationBudget(10)
        for _ in range(10):
            assert budget.consume()
        assert budget.exhausted
        assert not budget.consume()
        assert budget.consumed == 10

    def test_last_evaluation_then_exhausted(self):
        budget = EvaluationBudget(100_000)
        budget.consumed = 99_999
        assert budget.consume()
        assert budget.consumed == 100_000
        assert not budget.consume()

    def test_progress(self):
        budget = EvaluationBudget(4)
        budget.consume()
        budget.consume()
        assert budget.progress == 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EvaluationBudget(0)
