import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famv import (Categorical, Continuous, EvaluationBudget, Firefly,
                  IntegerRange, MixedSolution, RunTrace, SearchSpace,
                  random_solution)
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
        np.testing.assert_array_equal(space.int_idx, [0, 2])
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


class TestRunTrace:
    def test_rejects_unordered_samples(self):
        final = Firefly(MixedSolution(np.zeros(1), ()), 0.5)
        with pytest.raises(ValueError):
            RunTrace([(2, 1.0), (1, 0.5)], final, 0, "x")
        with pytest.raises(ValueError):
            RunTrace([(1, 1.0), (1, 0.5)], final, 0, "x")


class TestRecorder:
    def _recorder(self, values):
        """A recorder whose objective returns ``values`` in turn."""
        values = iter(values)
        budget = EvaluationBudget(10)
        return Recorder(lambda sol: next(values), budget), budget

    def test_no_evaluation_is_an_error(self):
        recorder, _ = self._recorder([])
        with pytest.raises(RuntimeError):
            recorder.build(0, "x")

    def test_non_finite_values_are_inf_and_never_best(self):
        recorder, budget = self._recorder([math.nan, 3.0, -math.inf, math.nan, 2.0])
        sol = MixedSolution(np.zeros(1), ())
        stored = []
        for _ in range(5):
            budget.consume()
            stored.append(recorder.evaluate(sol))
        assert stored == [math.inf, 3.0, math.inf, math.inf, 2.0]
        trace = recorder.build(0, "x")
        assert trace.samples == [(1, math.inf), (2, 3.0), (5, 2.0)]
        assert trace.final.fitness == 2.0


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
        budget.consume(2)
        assert budget.progress == 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EvaluationBudget(0)
        with pytest.raises(ValueError):
            EvaluationBudget(5).consume(0)
