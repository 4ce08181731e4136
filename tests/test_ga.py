import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famv import (Categorical, Continuous, GaConfig, IntegerRange, MixedSolution,
                  SearchSpace, run_ga)
from famv import ga
from famv.ga import ChromosomeLayout, _tournament, decode, one_point_crossover


class TestLayout:
    def test_segment_widths(self, mixed_space):
        layout = ChromosomeLayout(mixed_space, bits_per_continuous=16)
        widths = np.diff([*layout.starts, layout.length]).tolist()
        # two continuous (16 each), IntegerRange(0,9) -> 4 bits,
        # three categories -> 2 bits
        assert widths == [16, 16, 4, 2]
        assert layout.length == 38

    def test_singleton_discrete_still_one_bit(self):
        layout = ChromosomeLayout(SearchSpace([IntegerRange(5, 5)]), 16)
        assert layout.length == 1

    @given(dims=st.lists(st.one_of(
               st.just(Continuous(-1.0, 2.0)),
               st.integers(0, 2 ** 53 - 1).map(lambda w: IntegerRange(-2 ** 52, w - 2 ** 52)),
               st.integers(1, 40).map(lambda n: Categorical(tuple(range(n))))),
               min_size=1, max_size=30),
           bits=st.integers(1, 63))
    @settings(max_examples=100, deadline=None)
    def test_place_values_equal_the_per_segment_powers(self, dims, bits):
        layout = ChromosomeLayout(SearchSpace(dims), bits)
        widths = np.diff([*layout.starts, layout.length]).tolist()
        expected = np.concatenate([2 ** np.arange(w - 1, -1, -1) for w in widths])
        assert layout.place.dtype == expected.dtype == np.int64
        assert layout.place.tolist() == expected.tolist()


class TestDecode:
    def test_continuous_extremes(self):
        layout = ChromosomeLayout(SearchSpace([Continuous(0.0, 1.0)]),
                                  bits_per_continuous=8)
        bits = np.array([[0] * 8, [1] * 8], dtype=np.int8)
        cont, codes = decode(layout, bits)
        assert cont.tolist() == [[0.0], [1.0]]
        assert codes.shape == (2, 0)

    def test_modulo_mapping(self):
        # 5 symbols and 5 integers each take 3 bits, so raw 5..7 wrap around
        space = SearchSpace([Categorical(("a", "b", "c", "d", "e")), IntegerRange(2, 6)])
        layout = ChromosomeLayout(space, 16)
        assert layout.length == 6
        # raw 6 mod 5 = 1 -> "b"; raw 7 mod 5 = 2 -> 2 + 2; raw 0 -> "a", 2
        bits = np.array([[1, 1, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0]], dtype=np.int8)
        _, codes = decode(layout, bits)
        assert [space.decode(row) for row in codes] == [("b", 4), ("a", 2)]

    def test_always_feasible(self, mixed_space, rng):
        layout = ChromosomeLayout(mixed_space, 16)
        bits = rng.integers(0, 2, size=(200, layout.length), dtype=np.int8)
        for cont, codes in zip(*decode(layout, bits)):
            assert MixedSolution(cont, mixed_space.decode(codes)).conforms(mixed_space)

    def test_matches_per_segment_reference(self, mixed_space, rng):
        layout = ChromosomeLayout(mixed_space, 16)   # segments of 16, 16, 4 and 2 bits
        bits = rng.integers(0, 2, size=(50, layout.length), dtype=np.int8)
        cont, codes = decode(layout, bits)
        for row, x, c in zip(bits.tolist(), cont, codes):
            raw = [int("".join(map(str, row[a:b])), 2)
                   for a, b in ((0, 16), (16, 32), (32, 36), (36, 38))]
            assert x.tolist() == [-5.0 + raw[0] / 65535 * 10.0, 0.0 + raw[1] / 65535 * 10.0]
            assert c.tolist() == [raw[2] % 10, raw[3] % 3]

    def test_length_check(self, mixed_space):
        layout = ChromosomeLayout(mixed_space, 16)   # 38 bits
        for shape in [(1, 3), (38,), (2, 39)]:
            with pytest.raises(ValueError, match="chromosome shape"):
                decode(layout, np.zeros(shape, dtype=np.int8))


class TestCrossover:
    def test_identical_parents(self, rng):
        a = rng.integers(0, 2, size=(5, 4), dtype=np.int8)
        ca, cb = one_point_crossover(a, a.copy(), rng.integers(1, 5, size=5))
        np.testing.assert_array_equal(ca, a)
        np.testing.assert_array_equal(cb, a)

    def test_forced_cut(self):
        a = np.zeros((3, 4), dtype=np.int8)
        b = np.ones((3, 4), dtype=np.int8)
        # cut 2 swaps the last two bits, cut 1 the last three, cut L nothing
        ca, cb = one_point_crossover(a, b, np.array([2, 1, 4]))
        np.testing.assert_array_equal(ca, [[0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 0]])
        np.testing.assert_array_equal(cb, 1 - ca)

    def test_per_position_multiset_preserved(self, rng):
        a = rng.integers(0, 2, size=(8, 20), dtype=np.int8)
        b = rng.integers(0, 2, size=(8, 20), dtype=np.int8)
        ca, cb = one_point_crossover(a, b, rng.integers(1, 20, size=8))
        assert ca.shape == cb.shape == (8, 20)
        np.testing.assert_array_equal(np.minimum(ca, cb), np.minimum(a, b))
        np.testing.assert_array_equal(np.maximum(ca, cb), np.maximum(a, b))

    @pytest.mark.parametrize("rows, length", [(1, 2), (7, 38), (50, 600)])
    def test_equals_the_where_reference(self, rows, length):
        rng = np.random.default_rng(length)
        a = rng.integers(0, 2, size=(rows + 3, length), dtype=np.int8)
        b = rng.integers(0, 2, size=(rows + 3, length), dtype=np.int8)
        # cuts of 1, a middle value and L (no swap), then random ones
        cuts = np.concatenate(([1, length // 2, length], rng.integers(1, length + 1, size=rows)))
        suffix = np.arange(length) >= cuts[:, None]
        ca, cb = one_point_crossover(a, b, cuts)
        assert ca.dtype == cb.dtype == np.int8
        np.testing.assert_array_equal(ca, np.where(suffix, b, a))
        np.testing.assert_array_equal(cb, np.where(suffix, a, b))

    def test_too_short(self):
        with pytest.raises(ValueError, match="two bits"):
            one_point_crossover(np.zeros((2, 1), dtype=np.int8),
                                np.zeros((2, 1), dtype=np.int8), np.ones(2, dtype=int))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            one_point_crossover(np.zeros((2, 4), dtype=np.int8),
                                np.zeros((2, 5), dtype=np.int8), np.ones(2, dtype=int))


class FixedPicks:
    """A generator stand-in whose ``integers`` returns the given picks."""

    def __init__(self, picks):
        self.picks = np.array(picks)

    def integers(self, high, size):
        assert self.picks.shape == size and self.picks.max() < high
        return self.picks


class TestTournament:
    def test_population_of_one(self, rng):
        assert _tournament(np.array([5.0]), rng, 4, 3).tolist() == [0, 0, 0, 0]

    def test_best_selection_frequency(self, rng):
        fitness = np.arange(10, dtype=float)
        trials = 10_000
        wins = np.mean(_tournament(fitness, rng, trials, 3) == 0)
        # with replacement: P(best in sample) = 1 - (9/10)^3 = 0.271
        assert abs(wins - 0.271) < 0.02

    def test_worst_selection_frequency(self, rng):
        fitness = np.arange(10, dtype=float)
        trials = 10_000
        losses = np.mean(_tournament(fitness, rng, trials, 3) == 9)
        # only an all-worst sample selects it: (1/10)^3 = 0.001
        assert abs(losses - 0.001) < 0.002

    def test_empty_population(self, rng):
        with pytest.raises(ValueError):
            _tournament(np.array([]), rng, 2, 3)

    def test_first_minimal_pick_wins_a_tie(self):
        fitness = np.array([3.0, 1.0, 1.0, np.inf])
        picks = [[2, 1, 0], [1, 2, 3], [3, 0, 3], [3, 3, 3]]
        winners = _tournament(fitness, FixedPicks(picks), 4, 3)
        assert winners.tolist() == [2, 1, 0, 3]


class TestGaConfig:
    def test_rejects_odd_population(self):
        with pytest.raises(ValueError, match="^pop_size must be even for pairing, got 11$"):
            GaConfig(max_fe=100, pop_size=11)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GaConfig(max_fe=100, p_crossover=1.5)

    @pytest.mark.parametrize("name", ["p_crossover", "p_mutation"])
    @pytest.mark.parametrize("value", [-0.5, 1.5, np.nan, np.inf])
    def test_names_a_probability_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\], got {value}$"):
            GaConfig(max_fe=100, **{name: value})

    @pytest.mark.parametrize("setting", [
        {"tournament_size": 0}, {"tournament_size": -1},
        {"bits_per_continuous": 0}, {"bits_per_continuous": 64},
        {"pop_size": 0}, {"pop_size": -2}])
    def test_rejects_degenerate_setting_by_name(self, setting):
        (name, _), = setting.items()
        with pytest.raises(ValueError, match=name):
            GaConfig(max_fe=100, **setting)

    def test_names_the_elitism_bound_and_value(self):
        with pytest.raises(ValueError,
                           match=r"^elitism_count must be <= pop_size \(100\), got 101$"):
            GaConfig(max_fe=100, elitism_count=101)

    @pytest.mark.parametrize("setting", [
        {"tournament_size": 1}, {"bits_per_continuous": 1}, {"pop_size": 2}])
    def test_smallest_settings_run(self, toy_problem, setting):
        trace = run_ga(toy_problem, GaConfig(max_fe=60, seed=0, **setting))
        assert trace.final.solution.conforms(toy_problem.space)


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

    @pytest.mark.parametrize("dim", [Categorical(("x", "y")), IntegerRange(5, 5)])
    def test_one_bit_chromosome(self, dim):
        # no cut point exists, so children are copies (then mutated)
        class OneBit:
            name = "one-bit"
            reference_optimum = 0.0
            space = SearchSpace([dim])
            calls = 0
            def __call__(self, sol):
                self.calls += 1
                return float(sol.disc[0] == "y")

        problem = OneBit()
        trace = run_ga(problem, GaConfig(max_fe=300, seed=1))
        assert problem.calls == 300
        assert trace.final.solution.conforms(problem.space)

    def test_elites_carried_bit_for_bit(self, toy_problem, monkeypatch):
        # no crossover or mutation, and every tournament picks rows 0 and 1
        # in turn, so the second generation's children copy its two elites;
        # 56 FE are the initial 20 and two generations of 18 children
        decoded, tournament_fitness = [], []
        real_decode = ga.decode

        def recording_decode(layout, bits):
            decoded.append(bits.copy())
            return real_decode(layout, bits)

        def first_two(fitness, rng, n, size):
            tournament_fitness.append(fitness.copy())
            return np.arange(n) % 2

        monkeypatch.setattr(ga, "decode", recording_decode)
        monkeypatch.setattr(ga, "_tournament", first_two)
        config = GaConfig(max_fe=56, seed=3, pop_size=20, p_crossover=0.0,
                          p_mutation=0.0, elitism_count=2)
        run_ga(toy_problem, config)
        initial, _, second = decoded
        first_fitness, next_fitness = tournament_fitness
        elite = np.argsort(first_fitness, kind="stable")[:2]
        np.testing.assert_array_equal(next_fitness[:2], first_fitness[elite])
        np.testing.assert_array_equal(second, initial[elite][np.arange(18) % 2])

    def test_budget_ending_mid_generation(self):
        calls = []

        class Counting:
            name = "counting"
            reference_optimum = 0.0
            space = SearchSpace([Continuous(-1.0, 1.0), IntegerRange(0, 5)])

            def __call__(self, sol):
                calls.append(sol)
                return float(sol.cont[0] ** 2 + sol.disc[0])

        # 20 initial, two generations of 19 children, then 7 of the third
        trace = run_ga(Counting(), GaConfig(max_fe=65, seed=4, pop_size=20))
        assert len(calls) == 65
        assert trace.samples[-1][0] <= 65

    # 20 initial rows and generations of 19 children: 65 FE leave room for 7
    # children of the third generation, and 58 end on its boundary
    @pytest.mark.parametrize("max_fe, rows", [(65, [20, 19, 19, 7]), (58, [20, 19, 19])])
    def test_breeds_only_the_rows_it_evaluates(self, monkeypatch, max_fe, rows):
        decoded, calls = [], []
        real_decode = ga.decode

        def counting_decode(layout, bits):
            decoded.append(len(bits))
            return real_decode(layout, bits)

        class Counting:
            name = "counting"
            reference_optimum = 0.0
            space = SearchSpace([Continuous(-1.0, 1.0), IntegerRange(0, 5)])

            def __call__(self, sol):
                calls.append(sol)
                return float(sol.cont[0] ** 2 + sol.disc[0])

        monkeypatch.setattr(ga, "decode", counting_decode)
        run_ga(Counting(), GaConfig(max_fe=max_fe, seed=4, pop_size=20))
        assert decoded == rows
        assert len(calls) == max_fe

    @pytest.mark.parametrize("max_fe", [1, 20, 21, 65, 77])
    def test_a_shorter_budget_evaluates_a_prefix(self, mixed_space, max_fe):
        # a generation cut by the budget is the prefix of the full one: the
        # same streams, parents, cuts and mutations
        def solutions(budget):
            seen = []

            class Recording:
                name = "recording"
                reference_optimum = 0.0
                space = mixed_space

                def __call__(self, sol):
                    seen.append(sol)
                    return float(np.sum(sol.cont ** 2)) + sol.disc[0]

            trace = run_ga(Recording(), GaConfig(max_fe=budget, seed=9, pop_size=20,
                                                 p_mutation=0.05))
            return seen, trace

        short, short_trace = solutions(max_fe)
        full, full_trace = solutions(96)   # 20 initial rows and four full generations
        assert short == full[:max_fe]
        assert short_trace.samples == [s for s in full_trace.samples if s[0] <= max_fe]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_child_conforms(self, mixed_space, seed):
        solutions = []

        class Recording:
            name = "recording"
            reference_optimum = 0.0
            space = mixed_space

            def __call__(self, sol):
                solutions.append(sol)
                return float(np.sum(sol.cont ** 2)) + sol.disc[0]

        run_ga(Recording(), GaConfig(max_fe=500, seed=seed, pop_size=10,
                                     p_mutation=0.2))
        assert len(solutions) == 500
        assert all(sol.conforms(mixed_space) for sol in solutions)

    def test_finds_toy_optimum_region(self, toy_problem):
        trace = run_ga(toy_problem, GaConfig(max_fe=5000, seed=0))
        assert trace.final.fitness < 0.1
