import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encode
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

    def test_continuous_requires_a_finite_width(self):
        # hi - lo overflows to inf: every difference of positions could too,
        # and a move would hand the objective NaN positions
        for lo, hi in ((-1e308, 1e308), (-1.7976931348623157e308, 1e300), (-10 ** 308, 10 ** 308)):
            with pytest.raises(ValueError, match="width .*" + re.escape(f"[{lo}, {hi}]")):
                Continuous(lo, hi)
        assert math.isfinite(SearchSpace([Continuous(-8e307, 8e307)]).cont_range[0])

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

    def test_integer_range_bounds_fit_a_float64(self):
        for lo, hi in ((0, 2 ** 63 - 1), (-2 ** 53 - 1, 0), (2 ** 53 + 1, 2 ** 53 + 2),
                       (-2 ** 53, 2 ** 53), (0, 2 ** 53), (-2 ** 53, 0),
                       (1, 2 ** 53), (-2 ** 53, -1), (-2 ** 52, 2 ** 52),
                       (2 ** 52 + 1, 2 ** 52 + 1), (-2 ** 52 - 1, -2 ** 52 - 1)):
            with pytest.raises(ValueError, match=rf"2\*\*52.*2\*\*53.*\[{lo}, {hi}\]"):
                IntegerRange(lo, hi)
        # the widest ranges: 2**53 values each, every one within 2**52 of zero
        assert IntegerRange(1 - 2 ** 52, 2 ** 52).hi == 2 ** 52
        assert IntegerRange(-2 ** 52, 2 ** 52 - 1).lo == -2 ** 52

    def test_categorical_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Categorical(())
        with pytest.raises(ValueError):
            Categorical(("a", "a"))

    def test_categorical_keeps_its_values_as_a_tuple(self):
        for given in (["a", "b"], ("a", "b"), iter("ab"), {"a": 0, "b": 1}):
            dim = Categorical(given)
            assert dim.values == ("a", "b") and type(dim.values) is tuple
            assert dim == Categorical(("a", "b"))
            assert hash(dim) == hash(Categorical(("a", "b")))

    @pytest.mark.parametrize("values, match", [
        ("abc", "not one str, got 'abc'"),
        (b"ab", "not one bytes, got b'ab'"),
        ((["a"], ["b"]), r"hashable symbols, got \(\['a'\], \['b'\]\)"),
        ((1, {2}), r"hashable symbols, got \(1, \{2\}\)"),
        (5, "hashable symbols, got 5"),
    ], ids=["str", "bytes", "lists", "a-set", "an-int"])
    def test_categorical_rejects_a_str_and_unhashable_symbols(self, values, match):
        with pytest.raises(TypeError, match=match):
            Categorical(values)


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

    @pytest.mark.parametrize("dims, match", [
        ([5], "dimension 0 .* got 5"),
        ([Continuous(0.0, 1.0), None], "dimension 1 .* got None"),
        ([IntegerRange(0, 3), Continuous(0.0, 1.0), (0, 1)], r"dimension 2 .* got \(0, 1\)"),
        ([Continuous], "dimension 0 .* got <class"),
    ], ids=["int", "none", "tuple", "class"])
    def test_rejects_a_dimension_of_another_type(self, dims, match):
        with pytest.raises(TypeError, match=match):
            SearchSpace(dims)

    def test_code_layout(self):
        space = SearchSpace([IntegerRange(-2, 4), Continuous(0.0, 1.0),
                             Categorical(("x", "y", "z")), IntegerRange(7, 7)])
        np.testing.assert_array_equal(space.cont_pos, [1])
        np.testing.assert_array_equal(space.disc_pos, [0, 2, 3])
        np.testing.assert_array_equal(space.cat_idx, [1])
        np.testing.assert_array_equal(space.disc_lo, [-2, 0, 7])
        np.testing.assert_array_equal(space.disc_hi, [4, 2, 7])
        np.testing.assert_array_equal(space.disc_sizes, [7, 3, 1])
        np.testing.assert_array_equal(space.cat_sizes, [3])

    def test_codes_round_trip(self, mixed_space):
        codes = encode(mixed_space, (7, "c"))
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

    def test_repr(self):
        sol = MixedSolution(np.array([1.0, 2.5]), (3, "x"))
        assert repr(sol) == "MixedSolution(cont=array([1. , 2.5]), disc=(3, 'x'))"

    def test_not_equal_to_its_fields_as_a_tuple(self):
        cont, disc = np.array([1.0]), (3,)
        assert (MixedSolution(cont, disc) == (cont, disc)) is False

    def test_has_slots_and_no_instance_dict(self):
        sol = MixedSolution(np.array([1.0]), (3,))
        assert not hasattr(sol, "__dict__")
        with pytest.raises(AttributeError):
            sol.fitness = 1.0

    def test_conforms(self, mixed_space):
        good = MixedSolution(np.array([0.0, 5.0]), (3, "b"))
        assert good.conforms(mixed_space)
        assert not MixedSolution(np.array([9.0, 5.0]), (3, "b")).conforms(mixed_space)
        assert not MixedSolution(np.array([0.0, 5.0]), (3, "z")).conforms(mixed_space)
        assert not MixedSolution(np.array([0.0]), (3, "b")).conforms(mixed_space)
        for bad in (np.nan, np.inf, -np.inf):
            for k in range(2):
                cont = np.array([0.0, 5.0])
                cont[k] = bad
                assert not MixedSolution(cont, (3, "b")).conforms(mixed_space)
        assert not MixedSolution(np.array([[0.0, 5.0]]), (3, "b")).conforms(mixed_space)
        assert not MixedSolution(np.array([[0.0], [5.0]]), (3, "b")).conforms(mixed_space)
        space = SearchSpace([Continuous(0.0, 1.0), IntegerRange(0, 1)])
        assert MixedSolution(np.array([0.5]), (1,)).conforms(space)
        assert not MixedSolution(np.array([np.nan]), (1,)).conforms(space)
        assert not MixedSolution(np.array([[0.5]]), (1,)).conforms(space)
        assert not MixedSolution(np.array(0.5), (1,)).conforms(space)


class _Constant:
    """A stand-in stream whose every uniform is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


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

    @pytest.mark.parametrize("lo, hi", [(5, 5), (-3, 3), (-2 ** 52, 2 ** 52 - 1)])
    def test_stream_endpoints_give_the_bounds(self, lo, hi):
        # sizes 1, 7 and 2**53, the largest size whose every code a double
        # u = k / 2**53 reaches
        space = SearchSpace([Continuous(-1.0, 1.0), IntegerRange(lo, hi),
                             Categorical(tuple("abcdefg"))])
        sol = random_solution(space, _Constant(0.0))
        assert sol.cont[0] == -1.0
        assert sol.disc == (lo, "a")
        sol = random_solution(space, _Constant(np.nextafter(1.0, 0.0)))
        assert sol.disc == (hi, "g")
        assert type(sol.disc[0]) is int

    def test_stream_endpoints_on_the_widest_integer_range(self):
        # 2**53 codes, reaching 2**52 at either end: the smallest and
        # largest u draw the two bounds
        for lo, hi in ((1 - 2 ** 52, 2 ** 52), (-2 ** 52, 2 ** 52 - 1)):
            space = SearchSpace([IntegerRange(lo, hi)])
            assert random_solution(space, _Constant(0.0)).disc == (lo,)
            assert random_solution(space, _Constant(np.nextafter(1.0, 0.0))).disc == (hi,)


class TestRunTrace:
    def test_rejects_unordered_samples(self):
        final = Firefly(MixedSolution(np.zeros(1), ()), 0.5)
        with pytest.raises(ValueError):
            RunTrace([(2, 1.0), (1, 0.5)], final)
        with pytest.raises(ValueError):
            RunTrace([(1, 1.0), (1, 0.5)], final)

    def test_rejects_empty_samples(self):
        final = Firefly(MixedSolution(np.zeros(1), ()), 0.5)
        with pytest.raises(ValueError, match="at least one sample"):
            RunTrace([], final)


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
            recorder.build()

    def test_non_finite_values_are_inf_and_never_best(self):
        recorder, _ = self._recorder([math.nan, 3.0, -math.inf, math.nan, 2.0])
        stored = [recorder.evaluate(np.zeros(1), ("a",)) for _ in range(5)]
        assert stored == [math.inf, 3.0, math.inf, math.inf, 2.0]
        assert recorder.budget.consumed == 5
        trace = recorder.build()
        assert trace.samples == [(1, math.inf), (2, 3.0), (5, 2.0)]
        assert trace.final.fitness == 2.0

    def test_objective_gets_decoded_symbols(self):
        recorder, calls = self._recorder([1.0])
        recorder.evaluate(np.array([0.25]), self.SPACE.decode(np.array([1])))
        assert calls == [MixedSolution(np.array([0.25]), ("b",))]
        assert recorder.best.solution == calls[0]

    def test_evaluation_past_budget_raises(self):
        recorder, calls = self._recorder([1.0, 2.0, 3.0], max_fe=2)
        for _ in range(2):
            recorder.evaluate(np.zeros(1), ("a",))
        assert recorder.budget.exhausted
        with pytest.raises(RuntimeError, match="past the budget"):
            recorder.evaluate(np.zeros(1), ("a",))
        assert len(calls) == 2 and recorder.budget.consumed == 2


class TestEvaluateRows:
    SPACE = SearchSpace([Continuous(-1.0, 1.0), IntegerRange(2, 7),
                         Categorical(("a", "b", "c")), Continuous(0.0, 4.0)])

    class Objective:
        """Records each solution it is called with, and each call among
        ``events`` when given."""

        def __init__(self, space, events=None, values=None):
            self.space, self.calls, self.events = space, [], events
            self.values = None if values is None else iter(values)

        def __call__(self, sol):
            self.calls.append(sol)
            if self.events is not None:
                self.events.append(("call", len(self.calls)))
            if self.values is not None:
                return next(self.values)
            return float(sol.cont[0] * sol.cont[1] + sol.disc[0] + "abc".index(sol.disc[1]))

    def _rows(self, n, seed=0):
        rng = np.random.default_rng(seed)
        cont = self.SPACE.cont_lo + rng.random((n, 2)) * self.SPACE.cont_range
        codes = self.SPACE.disc_lo + rng.integers(0, 100, size=(n, 2)) % self.SPACE.disc_sizes
        return cont, codes

    def test_equals_evaluate_row_by_row(self):
        cont, codes = self._rows(40)
        by_rows = Recorder(self.Objective(self.SPACE), 50)
        by_row = Recorder(self.Objective(self.SPACE), 50)
        head = by_rows.evaluate_rows(cont[:15], codes[:15])
        values = [*head, *by_rows.evaluate_rows(cont[15:], codes[15:])]
        expected = [by_row.evaluate(x, self.SPACE.decode(c)) for x, c in zip(cont, codes)]
        assert values == expected
        assert head.dtype == np.float64 and head.shape == (15,)
        assert by_rows.problem.calls == by_row.problem.calls
        assert by_rows.samples == by_row.samples
        assert by_rows.best == by_row.best
        assert by_rows.budget.consumed == by_row.budget.consumed == 40

    def test_one_charge_then_one_call_per_row_in_order(self, monkeypatch):
        events = []
        recorder = Recorder(self.Objective(self.SPACE, events), 10)
        consume = recorder.budget.consume

        def logged_consume():
            events.append(("consume", recorder.budget.consumed + 1))
            return consume()

        monkeypatch.setattr(recorder.budget, "consume", logged_consume)
        cont, codes = self._rows(6)
        recorder.evaluate_rows(cont, codes)
        assert events == [(kind, k) for k in range(1, 7) for kind in ("consume", "call")]
        assert recorder.problem.calls == [MixedSolution(x, self.SPACE.decode(c))
                                          for x, c in zip(cont, codes)]

    def test_non_finite_rows_are_inf(self):
        recorder = Recorder(self.Objective(self.SPACE, values=[2.0, math.nan, -math.inf, 1.0]),
                            10)
        values = recorder.evaluate_rows(*self._rows(4))
        assert values.tolist() == [2.0, math.inf, math.inf, 1.0]
        assert recorder.samples == [(1, 2.0), (4, 1.0)]

    def test_a_row_past_the_budget_raises_before_its_call(self):
        recorder = Recorder(self.Objective(self.SPACE), 5)
        cont, codes = self._rows(8)
        recorder.evaluate_rows(cont[:2], codes[:2])
        with pytest.raises(RuntimeError, match="past the budget of 5 FE"):
            recorder.evaluate_rows(cont[2:], codes[2:])
        # the three rows the budget had room for were evaluated, in order
        assert recorder.problem.calls == [MixedSolution(x, self.SPACE.decode(c))
                                          for x, c in zip(cont[:5], codes[:5])]
        assert recorder.budget.consumed == 5
        assert recorder.samples[-1][0] <= 5

    def test_empty_batch_charges_nothing(self):
        recorder = Recorder(self.Objective(self.SPACE), 5)
        values = recorder.evaluate_rows(np.empty((0, 2)), np.empty((0, 2), dtype=np.int64))
        assert values.shape == (0,) and recorder.budget.consumed == 0


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
