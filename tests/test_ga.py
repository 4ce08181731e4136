import numpy as np
import pytest

from famv import (Categorical, Continuous, GaConfig, IntegerRange, SearchSpace,
                  run_ga)
from famv.ga import (ChromosomeLayout, _tournament_index, decode,
                     one_point_crossover)


class TestLayout:
    def test_segment_widths(self, mixed_space):
        layout = ChromosomeLayout(mixed_space, bits_per_continuous=16)
        widths = [nbits for _, _, nbits in layout.segments]
        # two continuous (16 each), IntegerRange(0,9) -> 4 bits,
        # three categories -> 2 bits
        assert widths == [16, 16, 4, 2]
        assert layout.length == 38

    def test_singleton_discrete_still_one_bit(self):
        layout = ChromosomeLayout(SearchSpace([IntegerRange(5, 5)]))
        assert layout.length == 1


class TestDecode:
    def test_continuous_extremes(self):
        layout = ChromosomeLayout(SearchSpace([Continuous(0.0, 1.0)]),
                                  bits_per_continuous=8)
        assert decode(layout, np.zeros(8, dtype=np.int8)).cont[0] == 0.0
        assert decode(layout, np.ones(8, dtype=np.int8)).cont[0] == 1.0

    def test_modulo_mapping(self):
        # 5 symbols and 5 integers each take 3 bits, so raw 5..7 wrap around
        space = SearchSpace([Categorical(("a", "b", "c", "d", "e")), IntegerRange(2, 6)])
        layout = ChromosomeLayout(space)
        assert layout.length == 6
        # raw 6 mod 5 = 1 -> "b"; raw 7 mod 5 = 2 -> 2 + 2
        assert decode(layout, np.array([1, 1, 0, 1, 1, 1], dtype=np.int8)).disc == ("b", 4)

    def test_always_feasible(self, mixed_space, rng):
        layout = ChromosomeLayout(mixed_space)
        for _ in range(200):
            bits = rng.integers(0, 2, size=layout.length, dtype=np.int8)
            assert decode(layout, bits).conforms(mixed_space)

    def test_length_check(self, mixed_space):
        layout = ChromosomeLayout(mixed_space)
        with pytest.raises(ValueError):
            decode(layout, np.zeros(3, dtype=np.int8))


class TestCrossover:
    def test_identical_parents(self, rng):
        a = np.array([0, 1, 0, 1], dtype=np.int8)
        ca, cb = one_point_crossover(a, a.copy(), rng)
        np.testing.assert_array_equal(ca, a)
        np.testing.assert_array_equal(cb, a)

    def test_forced_cut(self):
        class FixedCut:
            def integers(self, lo, hi):
                return 2

        a = np.array([0, 0, 0, 0], dtype=np.int8)
        b = np.array([1, 1, 1, 1], dtype=np.int8)
        ca, cb = one_point_crossover(a, b, FixedCut())
        np.testing.assert_array_equal(ca, [0, 0, 1, 1])
        np.testing.assert_array_equal(cb, [1, 1, 0, 0])

    def test_per_position_multiset_preserved(self, rng):
        a = rng.integers(0, 2, size=20, dtype=np.int8)
        b = rng.integers(0, 2, size=20, dtype=np.int8)
        ca, cb = one_point_crossover(a, b, rng)
        assert len(ca) == len(cb) == 20
        for k in range(20):
            assert {ca[k], cb[k]} == {a[k], b[k]}

    def test_too_short(self, rng):
        with pytest.raises(ValueError):
            one_point_crossover(np.zeros(1, dtype=np.int8),
                                np.zeros(1, dtype=np.int8), rng)


class TestTournament:
    def test_population_of_one(self, rng):
        assert _tournament_index([5.0], rng, 3) == 0

    def test_best_selection_frequency(self, rng):
        fitnesses = [float(f) for f in range(10)]
        trials = 10_000
        wins = sum(_tournament_index(fitnesses, rng, 3) == 0 for _ in range(trials))
        # with replacement: P(best in sample) = 1 - (9/10)^3 = 0.271
        assert abs(wins / trials - 0.271) < 0.02

    def test_worst_selection_frequency(self, rng):
        fitnesses = [float(f) for f in range(10)]
        trials = 10_000
        losses = sum(_tournament_index(fitnesses, rng, 3) == 9 for _ in range(trials))
        # only an all-worst sample selects it: (1/10)^3 = 0.001
        assert abs(losses / trials - 0.001) < 0.002

    def test_empty_population(self, rng):
        with pytest.raises(ValueError):
            _tournament_index([], rng, 3)


class TestGaConfig:
    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            GaConfig(max_fe=100, pop_size=11)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GaConfig(max_fe=100, p_crossover=1.5)


class TestRunGa:
    def test_degenerate_freeze(self, toy_problem):
        config = GaConfig(max_fe=5000, seed=0, pop_size=20, p_crossover=0.0,
                          p_mutation=0.0, elitism_count=20)
        trace = run_ga(toy_problem, config)
        # nothing evolves, so only the initial generation is evaluated
        assert trace.samples[-1][0] <= 20

    def test_monotone_best(self, toy_problem):
        trace = run_ga(toy_problem, GaConfig(max_fe=3000, seed=1))
        bests = [b for _, b in trace.samples]
        assert all(a > b for a, b in zip(bests, bests[1:]))

    def test_budget_respected(self, toy_problem):
        trace = run_ga(toy_problem, GaConfig(max_fe=450, seed=2))
        assert trace.samples[-1][0] <= 450

    def test_determinism(self, toy_problem):
        config = GaConfig(max_fe=2000, seed=5)
        assert run_ga(toy_problem, config).samples == \
            run_ga(toy_problem, config).samples

    def test_finds_toy_optimum_region(self, toy_problem):
        trace = run_ga(toy_problem, GaConfig(max_fe=5000, seed=0))
        assert trace.final.fitness < 0.1
