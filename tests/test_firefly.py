import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import encode
from test_engine_properties import Bowl, _dims

from famv import (Categorical, Continuous, EvaluationBudget, FireflyConfig,
                  IntegerRange, MixedSolution, SearchSpace, get_problem, harness,
                  run_algorithm, run_classical_fa, run_famv)
from famv import firefly
from famv.core import Recorder, random_point
from famv.distances import DistanceKind
from famv.firefly import (_BLOCK, _Uniforms, _attract, _clip, _integer_step,
                          _round_codes, _sweep, adapt_parameters, alpha_step_categorical,
                          attractiveness, beta_step, discrete_attraction_prob,
                          replacement_prob)


class TestAttractiveness:
    def test_zero_distance_gives_beta0(self):
        assert attractiveness(1.5, 0.1, 0.0) == 1.5

    def test_unit_distance(self):
        assert attractiveness(1.5, 0.1, 1.0) == pytest.approx(1.35726, abs=1e-5)

    def test_gamma_zero_never_decays(self):
        assert attractiveness(1.5, 0.0, 123.0) == 1.5

    def test_strictly_decreasing_in_r(self, rng):
        radii = np.sort(rng.uniform(0.0, 5.0, size=50))
        values = [attractiveness(1.5, 0.1, r) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDiscreteAttractionProb:
    def test_coincident_fireflies(self):
        assert discrete_attraction_prob(0.1, 0.0) == 1.0

    def test_known_values(self):
        assert discrete_attraction_prob(0.1, 2.0) == pytest.approx(0.67032, abs=1e-5)
        assert discrete_attraction_prob(0.1, 10.0) == pytest.approx(4.54e-5, rel=1e-2)

    def test_strictly_decreasing_in_r(self, rng):
        radii = np.sort(rng.uniform(0.0, 5.0, size=50))
        values = [discrete_attraction_prob(0.1, r) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestContinuousMove:
    """`_attract(xi, xj - xi, beta, alpha (u - 1/2))` is
    xi + beta (xj - xi) + alpha (u - 1/2)."""

    xi, xj = np.array([0.0, 1.0, -3.0]), np.array([4.0, -2.0, 5.0])

    def test_full_attraction_no_noise(self):
        noise = 0.0 * (np.array([0.0, 0.25, 0.5]) - 0.5)
        np.testing.assert_array_equal(_attract(self.xi, self.xj - self.xi, 1.0, noise),
                                      self.xj)

    def test_no_movement(self):
        noise = 0.0 * (np.array([0.0, 0.25, 0.5]) - 0.5)
        np.testing.assert_array_equal(_attract(self.xi, self.xj - self.xi, 0.0, noise),
                                      self.xi)

    def test_exact_values(self):
        # beta (xj - xi) = (2, -1.5, 4), alpha (u - 1/2) = (-1, -0.5, 0.5)
        noise = 2.0 * (np.array([0.0, 0.25, 0.75]) - 0.5)
        np.testing.assert_array_equal(_attract(self.xi, self.xj - self.xi, 0.5, noise),
                                      [1.0, -1.0, 1.5])

    def test_noise_law(self):
        # pure alpha (u - 1/2) noise: -alpha/2 at u = 0, 0 at u = 1/2, and
        # below alpha/2 at the largest u < 1, which is 1 - 2**-53
        u = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
        out = _attract(np.zeros(4), np.zeros(4), 0.0, 2.0 * (u - 0.5))
        np.testing.assert_array_equal(out, [-1.0, -0.5, 0.0, 1.0 - 2.0 ** -52])


class TestBetaStep:
    space = SearchSpace([Categorical(("a", "b")), Categorical(("a", "b")),
                         IntegerRange(0, 9)])

    def step(self, xi, xj, prob, rng):
        codes = beta_step(self.space, encode(self.space, xi), encode(self.space, xj), prob, rng)
        return self.space.decode(codes)

    def test_certain_copy(self, rng):
        assert self.step(("a", "a", 1), ("b", "a", 7), 1.0, rng) == ("b", "a", 7)

    def test_no_copy(self, rng):
        assert self.step(("a", "a", 1), ("b", "a", 7), 0.0, rng) == ("a", "a", 1)

    def test_copy_frequency(self, rng):
        trials = 10_000
        copied = sum(self.step(("a", "a", 1), ("b", "a", 1), 0.5, rng)[0] == "b"
                     for _ in range(trials))
        assert abs(copied / trials - 0.5) < 0.02

    def test_agreeing_components_never_change(self, rng):
        for _ in range(200):
            out = self.step(("a", "b", 5), ("b", "b", 5), 1.0, rng)
            assert out[1] == "b" and out[2] == 5

    def test_output_from_parent_values(self, rng):
        xi, xj = ("a", "a", 1), ("b", "b", 7)
        for _ in range(200):
            out = self.step(xi, xj, 0.5, rng)
            assert all(o in (a, b) for o, a, b in zip(out, xi, xj))


class TestUniforms:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.lists(st.one_of(st.integers(0, 40), st.integers(_BLOCK - 3, 2 * _BLOCK + 3)),
                    max_size=12))
    def test_chunks_are_one_read_only_stream(self, seed, sizes):
        uniforms = _Uniforms(np.random.default_rng(seed))
        chunks = [uniforms.random(n) for n in sizes]
        assert [len(c) for c in chunks] == sizes
        assert not any(c.flags.writeable for c in chunks)
        np.testing.assert_array_equal(np.concatenate([np.empty(0), *chunks]),
                                      np.random.default_rng(seed).random(sum(sizes)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.lists(st.tuples(st.one_of(st.none(), st.floats(1e-3, 1e3)), st.integers(0, 5),
                              st.one_of(st.integers(0, 40), st.integers(_BLOCK - 3, _BLOCK + 3)),
                              st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
                    max_size=12))
    # alpha changes mid-block, then a move crosses the block boundary under
    # it, then alpha changes again in the new block
    @example(seed=3, calls=[(None, 1, 10, 2, 5, 3), (0.25, 0, 7, 4, 6, 2),
                            (None, 2, _BLOCK - 20, 3, 8, 4), (7.5, 3, 5, 1, 9, 2)])
    def test_move_forms_come_from_the_same_stream(self, seed, calls):
        # each call: scale(alpha) unless alpha is None, random(k), then
        # move(n_c, m, n_d, n_cat)
        uniforms = _Uniforms(np.random.default_rng(seed))
        u = np.random.default_rng(seed).random(sum(sum(c[1:]) for c in calls))
        pos, alpha = 0, 1.0
        for new_alpha, k, n_c, m, n_d, n_cat in calls:
            if new_alpha is not None:
                uniforms.scale(new_alpha)
                alpha = new_alpha
            assert uniforms.random(k).tobytes() == u[pos:pos + k].tobytes()
            a = pos + k
            b, c, d = a + n_c, a + n_c + m, a + n_c + m + n_d
            noise, copy, step, flags = uniforms.move(n_c, m, n_d, n_cat)
            assert not any(x.flags.writeable for x in (noise, copy, step, flags))
            assert noise.tobytes() == (alpha * (u[a:b] - 0.5)).tobytes()
            assert copy.tobytes() == u[b:c].tobytes()
            assert step.tobytes() == (alpha * (2.0 * u[c:d] - 1.0)).tobytes()
            assert flags.tobytes() == u[d:d + n_cat].tobytes()
            pos = d + n_cat

    def test_writing_into_uniforms_raises(self):
        with pytest.raises(ValueError):
            _Uniforms(np.random.default_rng(0)).random(3)[0] = 0.5

    def test_repeated_scale_keeps_the_forms(self):
        uniforms = _Uniforms(np.random.default_rng(0))
        uniforms.random(1)
        uniforms.scale(0.5)
        half, sym = uniforms._half, uniforms._sym
        uniforms.scale(0.5)
        assert uniforms._half is half and uniforms._sym is sym

    def test_new_alpha_recomputes_the_forms(self):
        uniforms = _Uniforms(np.random.default_rng(0))
        u = uniforms.random(1)
        uniforms.scale(0.5)
        half = uniforms._half
        uniforms.scale(0.25)
        assert uniforms._half is not half
        noise, _, step, _ = uniforms.move(2, 0, 2, 0)
        block = np.random.default_rng(0).random(5)
        assert u.tobytes() == block[:1].tobytes()
        assert noise.tobytes() == (0.25 * (block[1:3] - 0.5)).tobytes()
        assert step.tobytes() == (0.25 * (2.0 * block[3:5] - 1.0)).tobytes()

    def test_block_crossing_after_a_skipped_scale(self):
        # the first block is scaled by 0.5 once, the repeat is skipped, and
        # the move that crosses into the next block must get its forms at 0.5
        uniforms = _Uniforms(np.random.default_rng(0))
        uniforms.random(1)
        uniforms.scale(0.5)
        uniforms.random(_BLOCK - 3)
        uniforms.scale(0.5)
        noise, _, step, _ = uniforms.move(3, 0, 3, 0)
        u = np.random.default_rng(0).random(_BLOCK + 4)[_BLOCK - 2:]
        assert noise.tobytes() == (0.5 * (u[:3] - 0.5)).tobytes()
        assert step.tobytes() == (0.5 * (2.0 * u[3:] - 1.0)).tobytes()


class TestAlphaStepInteger:
    """`_integer_step(codes, lo, hi, alpha (2u - 1))` is round(codes + alpha
    (2u - 1)), halves away from zero, clipped into [lo, hi]."""

    def test_zero_alpha_keeps_value(self):
        codes = np.array([0, 5, 10])
        eps = 2.0 * np.array([0.0, 0.5, 0.75]) - 1.0
        np.testing.assert_array_equal(_integer_step(codes, 0, 10, 0.0 * eps), codes)

    def test_lower_boundary_clamped(self):
        # 3 + 0.9 (2u - 1) at u = 0, 0.25, 0.5, 0.75: 2.1, 2.55, 3, 3.45
        eps = 2.0 * np.array([0.0, 0.25, 0.5, 0.75]) - 1.0
        out = _integer_step(np.full(4, 3), np.full(4, 3), np.full(4, 10), 0.9 * eps)
        np.testing.assert_array_equal(out, [3, 3, 3, 3])
        out = _integer_step(np.full(2, 9), np.full(2, 3), np.full(2, 10), 1.75 * np.ones(2))
        np.testing.assert_array_equal(out, [10, 10])

    def test_step_law(self):
        # 5 + 1.5 eps for eps = -1, -0.75, -0.25, 0, 0.25, 0.75, 1:
        # 3.5, 3.875, 4.625, 5, 5.375, 6.125, 6.5
        eps = np.array([-1.0, -0.75, -0.25, 0.0, 0.25, 0.75, 1.0])
        out = _integer_step(np.full(7, 5), 0, 10, 1.5 * eps)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [4, 4, 5, 5, 5, 6, 7])

    def test_halves_round_away_from_zero(self):
        # codes + 2 eps = -4.5, -5.5, 5.5, 4.5, 0.5, -0.5, then -4.6 and 4.6
        codes = np.array([-5, -5, 5, 5, 0, 0, -5, 5])
        eps = np.array([0.25, -0.25, 0.25, -0.25, 0.25, -0.25, 0.2, -0.2])
        out = _integer_step(codes, np.full(8, -10), np.full(8, 10), 2.0 * eps)
        np.testing.assert_array_equal(out, [-5, -6, 6, 5, 1, -1, -5, 5])


class _LargestUniform:
    """A stand-in generator whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


class TestAlphaStepCategorical:
    """`alpha_step_categorical(codes, cat_idx, sizes, flags, p, rng)` redraws
    ``codes[cat_idx[k]]`` in place as floor(u * sizes[k]), u from ``rng``,
    for each flag below p."""

    def test_zero_probability_keeps_value(self, rng):
        codes = np.array([0, 2, 1])
        out = alpha_step_categorical(codes.copy(), np.arange(3), np.array([3, 3, 3]),
                                     rng.random(3), 0.0, rng)
        np.testing.assert_array_equal(out, codes)

    def test_uniform_replacement(self, rng):
        trials = 30_000
        out = alpha_step_categorical(np.zeros(trials, dtype=np.int64), np.arange(trials),
                                     np.full(trials, 3), np.zeros(trials), 1.0, rng)
        for share in np.bincount(out, minlength=3) / trials:
            assert abs(share - 1.0 / 3.0) < 0.02

    def test_singleton_forced(self, rng):
        out = alpha_step_categorical(np.array([0]), np.arange(1), np.array([1]),
                                     np.zeros(1), 1.0, rng)
        np.testing.assert_array_equal(out, [0])

    def test_largest_uniform_redraws_the_last_symbol(self):
        sizes = np.array([1, 2, 3, 201, 1201, 2 ** 22 - 1, 2 ** 53 - 1, 2 ** 53])
        out = alpha_step_categorical(np.zeros(len(sizes), dtype=np.int64),
                                     np.arange(len(sizes)), sizes, np.zeros(len(sizes)), 1.0,
                                     _LargestUniform())
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, sizes - 1)

    def test_flags_pick_the_codes_redrawn_in_place(self):
        # codes 1, 3 and 4 are categorical; only code 4's flag is below p
        codes = np.array([5, 0, 7, 1, 0])
        out = alpha_step_categorical(codes, np.array([1, 3, 4]), np.array([4, 2, 6]),
                                     np.array([0.5, 0.25, 0.2]), 0.25, _LargestUniform())
        assert out is codes
        np.testing.assert_array_equal(out, [5, 0, 7, 1, 5])


class TestAlphaStepAll:
    """The exploration step as run_famv takes it on a whole code vector: the
    integer step on every code, each categorical code back to its pre-step
    value, then the redraws."""

    def test_no_replacement_keeps_categories_and_bounds(self, rng):
        space = SearchSpace([IntegerRange(-2, 4), Continuous(0.0, 1.0),
                             Categorical(("x", "y", "z")), IntegerRange(7, 7),
                             Categorical(tuple(range(9)))])
        codes = np.array([0, 2, 7, 5])
        is_cat = np.isin(np.arange(space.n_d), space.cat_idx)
        for _ in range(200):
            step = 1e6 * (2.0 * rng.random(space.n_d) - 1.0)
            stepped = _integer_step(codes, space.disc_lo, space.disc_hi, step)
            out = alpha_step_categorical(np.where(is_cat, codes, stepped), space.cat_idx,
                                         space.cat_sizes, rng.random(2), 0.0, rng)
            np.testing.assert_array_equal(out[space.cat_idx], codes[space.cat_idx])
            assert MixedSolution(np.zeros(1), space.decode(out)).conforms(space)
        assert set(out[[0, 2]]) <= {-2, 4, 7}


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g"])
@pytest.mark.parametrize("categorical", [False, True])
@pytest.mark.parametrize("budget", [1, 26, 300])
def test_alpha_step_categorical_runs_once_per_move(algo, categorical, budget, monkeypatch):
    # bench/run.py counts this name's calls; run_famv makes one per move on a
    # space with a categorical dimension, and fa none
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return alpha_step_categorical(*args)

    monkeypatch.setattr(firefly, "alpha_step_categorical", counting)
    dims = [Continuous(-1.0, 2.0), IntegerRange(-3, 3)]
    run_algorithm(algo, Bowl(dims + [Categorical(("x", "y", "z"))] * categorical), budget, 0)
    pop_size = FireflyConfig(max_fe=budget).pop_size
    moves = max(0, budget - pop_size) if categorical and algo != "fa" else 0
    assert calls == moves


class TestReplacementProb:
    def test_adaptive_midpoint(self):
        for k in (0.5, 1.0, 5.0, 20.0):
            assert replacement_prob(1.0, 2.0, k, adaptive=True) == 0.5

    def test_known_values(self):
        assert replacement_prob(2.0, 2.0, 1.0, adaptive=True) == \
            pytest.approx(0.73106, abs=1e-5)
        assert replacement_prob(1.5, 2.0, 1.0, adaptive=False) == \
            pytest.approx(0.67918, abs=1e-5)

    def test_strictly_increasing_in_alpha(self):
        alphas = np.linspace(0.0, 4.0, 50)
        for adaptive in (True, False):
            values = [replacement_prob(a, 2.0, 1.0, adaptive) for a in alphas]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_steep_sigmoid_saturates_to_zero(self):
        # -k (alpha - alpha_init / 2) is far past exp's overflow point (~709.8)
        assert replacement_prob(0.01, 1.5, 5000.0, adaptive=True) == 0.0
        assert replacement_prob(1.5, 1.5, 5000.0, adaptive=True) == 1.0
        trace = run_famv(get_problem("vessel"),
                         FireflyConfig(max_fe=3000, k=5000.0, adapt_alpha=True))
        assert trace.samples[-1][0] <= 3000 and math.isfinite(trace.final.fitness)


class TestAdaptParameters:
    def test_start_of_run(self):
        budget = EvaluationBudget(100)
        assert adapt_parameters(2.0, 0.05, budget) == (2.0, 0.05)

    def test_three_quarters(self):
        budget = EvaluationBudget(100)
        for _ in range(75):
            budget.consume()
        alpha, _ = adapt_parameters(2.0, 0.05, budget)
        assert alpha == pytest.approx(0.5)

    def test_floor_at_end(self):
        budget = EvaluationBudget(100)
        while budget.consume():
            pass
        assert adapt_parameters(2.0, 0.05, budget) == (0.01, 0.01)

    def test_non_increasing(self):
        budget = EvaluationBudget(1000)
        previous = (np.inf, np.inf)
        for _ in range(1000):
            budget.consume()
            current = adapt_parameters(2.0, 0.05, budget)
            assert current[0] <= previous[0] and current[1] <= previous[1]
            previous = current


class TestFireflyConfig:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            FireflyConfig(max_fe=100, pop_size=1)
        with pytest.raises(ValueError):
            FireflyConfig(max_fe=100, beta0=0.0)

    @pytest.mark.parametrize("name", ["beta0", "alpha", "gamma", "k"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_setting(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            FireflyConfig(max_fe=100, **{name: value})

    @pytest.mark.parametrize("name, value, kind", [
        ("distance", "gower", "a DistanceKind"), ("distance", "mixed-eh", "a DistanceKind"),
        ("distance", None, "a DistanceKind"), ("adapt_alpha", "no", "a bool"),
        ("adapt_alpha", 0, "a bool"), ("adapt_alpha", None, "a bool"),
        ("adapt_gamma", "yes", "a bool"), ("adapt_gamma", 1.0, "a bool")])
    def test_rejects_a_non_numeric_setting_of_the_wrong_type_by_name(self, name, value, kind):
        with pytest.raises(TypeError, match=f"^{name} must be {kind}, got {value!r}$"):
            FireflyConfig(max_fe=50, **{name: value})


class TestSweep:
    def test_schedule_and_charges(self):
        fitness = [4.0, 1.0, 2.0, 3.0]
        budget = EvaluationBudget(9)
        seen = []
        for _ in range(2):
            for i, j in _sweep(fitness, budget):
                assert budget.consumed == len(seen)  # the sweep charges nothing
                seen.append((i, j))
                budget.consume()  # the caller's evaluation
                if (i, j) == (0, 1):
                    fitness[0] = 0.5  # now the brightest: no move toward 2 or 3
        assert seen == [(0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
                        (0, None), (1, 0)]  # second pass stops at exhaustion
        assert budget.exhausted
        assert list(_sweep(fitness, budget)) == []
        assert budget.consumed == 9


class TestRunFamv:
    def test_constant_objective_flat_trace(self, mixed_space):
        class Flat:
            name = "flat"
            space = mixed_space
            reference_optimum = 7.0
            def __call__(self, sol):
                return 7.0

        trace = run_famv(Flat(), FireflyConfig(max_fe=500, seed=0))
        assert trace.final.fitness == 7.0
        assert len(trace.samples) == 1  # only the first evaluation improves

    def test_toy_convergence(self, toy_problem):
        hits = 0
        for seed in range(30):
            trace = run_famv(toy_problem, FireflyConfig(max_fe=5000, seed=seed))
            hits += trace.final.fitness < 1e-2
        assert hits >= 28

    def test_budget_accounting(self, toy_problem):
        calls = 0
        base = toy_problem

        class Counting:
            name = base.name
            space = base.space
            reference_optimum = 0.0
            def __call__(self, sol):
                nonlocal calls
                calls += 1
                return base(sol)

        trace = run_famv(Counting(), FireflyConfig(max_fe=777, seed=3))
        assert calls <= 777
        assert trace.samples[-1][0] <= 777

    def test_trace_monotone(self, toy_problem):
        trace = run_famv(toy_problem, FireflyConfig(max_fe=2000, seed=1))
        bests = [b for _, b in trace.samples]
        assert all(a > b for a, b in zip(bests, bests[1:]))
        fes = [fe for fe, _ in trace.samples]
        assert fes == sorted(set(fes))

    def test_determinism(self, toy_problem):
        config = FireflyConfig(max_fe=1500, seed=11)
        a = run_famv(toy_problem, config)
        b = run_famv(toy_problem, config)
        assert a.samples == b.samples
        assert a.final.solution == b.final.solution

    def test_moves_conform_to_space(self, toy_problem):
        trace = run_famv(toy_problem, FireflyConfig(max_fe=1000, seed=5))
        assert trace.final.solution.conforms(toy_problem.space)


class _Zero:
    name, reference_optimum = "zero", 0.0

    def __init__(self, space):
        self.space = space

    def __call__(self, sol):
        return 0.0


class TestRelaxation:
    """fa's evaluation map on a position the loop has clipped into the
    relaxed box: each discrete slot rounds to the nearest code."""

    @staticmethod
    def evaluate(space, position):
        rec = Recorder(_Zero(space), 1)
        firefly._relaxed_evaluate(rec)(_clip(position, space.lo, space.hi), None)
        return rec.best.solution

    def test_bounds(self, mixed_space):
        np.testing.assert_allclose(mixed_space.lo, [-5.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(mixed_space.hi, [5.0, 10.0, 9.0, 2.0])

    def test_decode_nearest_index(self, mixed_space):
        codes = _round_codes(np.array([3.2, 1.4]))
        np.testing.assert_array_equal(codes, [3, 1])
        assert codes.dtype == np.int64
        sol = self.evaluate(mixed_space, np.array([0.0, 5.0, 3.2, 1.4]))
        assert sol.disc == (3, "b")
        assert sol.conforms(mixed_space)

    def test_decode_rounds_and_clamps(self, mixed_space):
        # clipped first: 12.6 rounds as 9, not 13, and 9.0 as 2
        sol = self.evaluate(mixed_space, np.array([7.0, -1.0, 12.6, 9.0]))
        np.testing.assert_array_equal(sol.cont, [5.0, 0.0])
        assert sol.disc == (9, "c")

    def test_decode_rounds_half_away_from_zero(self):
        space = SearchSpace([IntegerRange(-5, 5)] * 4)
        np.testing.assert_array_equal(_round_codes(np.array([-1.5, -0.4, 0.5, 2.5])),
                                      [-2, 0, 1, 3])
        sol = self.evaluate(space, np.array([-1.5, -0.4, 0.5, 2.5]))
        assert len(sol.cont) == 0
        assert sol.disc == (-2, 0, 1, 3)
        assert all(type(v) is int for v in sol.disc)


@pytest.mark.parametrize("algo", ["fa", "famv-h"])
def test_fa_does_no_code_work(algo, monkeypatch):
    # fa moves no code vector, so it never copies or steps a code; famv-h
    # on the same space does both on every move
    calls = {"_copy_differing": 0, "_integer_step": 0}

    def counting(name):
        original = getattr(firefly, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name in calls:
        monkeypatch.setattr(firefly, name, counting(name))
    dims = [Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y", "z"))]
    run_algorithm(algo, Bowl(dims), 300, 0)
    if algo == "fa":
        assert calls == {"_copy_differing": 0, "_integer_step": 0}
    else:
        assert calls["_copy_differing"] > 0 and calls["_integer_step"] == 300 - 25


class TestRunClassicalFa:
    def test_pure_continuous_problem(self):
        space = SearchSpace([Continuous(-5.0, 5.0), Continuous(-5.0, 5.0)])

        class Sphere2:
            name = "sphere2"
            reference_optimum = 0.0
            def __init__(self):
                self.space = space
            def __call__(self, sol):
                return float(np.sum(sol.cont ** 2))

        trace = run_classical_fa(Sphere2(), FireflyConfig(max_fe=5000, seed=0))
        assert trace.final.fitness < 1.0

    def test_mixed_problem_decodes(self, toy_problem):
        trace = run_classical_fa(toy_problem, FireflyConfig(max_fe=2000, seed=0))
        assert trace.final.solution.conforms(toy_problem.space)

    def test_budget_respected(self, toy_problem):
        trace = run_classical_fa(toy_problem, FireflyConfig(max_fe=400, seed=2))
        assert trace.samples[-1][0] <= 400

    def test_constant_objective_spends_whole_budget(self, mixed_space):
        # no firefly is brighter than another, so each one walks randomly
        calls = 0

        class Flat:
            name = "flat"
            space = mixed_space
            reference_optimum = 7.0
            def __call__(self, sol):
                nonlocal calls
                calls += 1
                assert sol.conforms(mixed_space)
                return 7.0

        trace = run_classical_fa(Flat(), FireflyConfig(max_fe=500, seed=0))
        assert calls == 500
        assert trace.final.fitness == 7.0
        assert len(trace.samples) == 1  # only the first evaluation improves


def _round_half_away(v):
    """sign(v) floor(|v| + 1/2): the nearest integer, halves away from zero."""
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _staged_famv(problem, config: FireflyConfig):
    """run_famv written from the formulas, each stage drawing its own
    uniforms from the stream in the engine's order.  With m the number of
    differing codes: the distance (||d|| + m) / dim for mixed-EH or
    (sum |d| / range + m) / dim for Gower, d = xj - xi; the move
    xi + beta d + alpha (u - 1/2); one copy uniform per differing code, in
    order, copying xj's code when it is below p; the integer step
    round(c + alpha (2u - 1)) on every code, halves away from zero, then
    np.clip; each categorical code then keeps its pre-step value or, for a
    uniform below p_alpha, is redrawn as floor(u * size)."""
    space = problem.space
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    conts, codes, fitness = [], [], []
    for _ in range(min(config.pop_size, config.max_fe)):
        cont, code = random_point(space, rng)
        conts.append(cont)
        codes.append(code)
        fitness.append(rec.evaluate(cont, code))
    alpha, gamma, cats = config.alpha, config.gamma, space.cat_idx
    while not rec.budget.exhausted:
        a, g = adapt_parameters(config.alpha, config.gamma, rec.budget)
        alpha, gamma = (a if config.adapt_alpha else alpha), (g if config.adapt_gamma else gamma)
        p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        for i, j in _sweep(fitness, rec.budget):
            xi, ci = conts[i], codes[i]
            disc = ci.copy()
            if j is None:
                cont = xi + alpha * (rng.random(space.n_c) - 0.5)
            else:
                xj, cj = conts[j], codes[j]
                d, m = xj - xi, int(np.count_nonzero(ci != cj))
                if config.distance is DistanceKind.MIXED_EH:
                    r = (math.sqrt(d.dot(d)) + m) / space.dim
                else:
                    span = space.cont_hi - space.cont_lo
                    r = (float(np.sum(np.abs(d) / span)) + m) / space.dim
                beta = attractiveness(config.beta0, gamma, r)
                cont = xi + beta * d + alpha * (rng.random(space.n_c) - 0.5)
                p = discrete_attraction_prob(gamma, r)
                for k in range(space.n_d):
                    if ci[k] != cj[k] and rng.random(1)[0] < p:
                        disc[k] = cj[k]
            stepped = _round_half_away(disc + alpha * (2.0 * rng.random(space.n_d) - 1.0))
            new = np.clip(stepped, space.disc_lo, space.disc_hi).astype(np.int64)
            hit = rng.random(len(cats)) < p_alpha   # every flag first, then the redraws
            redraws = iter(rng.random(np.count_nonzero(hit)))
            for k, size, redrawn in zip(cats, space.cat_sizes, hit):
                new[k] = math.floor(next(redraws) * size) if redrawn else disc[k]
            codes[i] = new
            conts[i] = np.clip(cont, space.cont_lo, space.cont_hi)
            fitness[i] = rec.evaluate(conts[i], codes[i])
    return rec.build()


def _staged_fa(problem, config: FireflyConfig):
    """run_classical_fa written from the formulas: the move
    xi + beta d + alpha (u - 1/2) with beta from ||d||, d = xj - xi, then
    np.clip into the bounds; a discrete slot of the clipped position rounds
    half away from zero."""
    space = problem.space
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    lo, hi = space.lo, space.hi

    def evaluate(position):
        x = np.clip(position, lo, hi)
        codes = _round_half_away(x[space.disc_pos]).astype(np.int64)
        return rec.evaluate(x[space.cont_pos], codes)

    positions = [lo + rng.random(space.dim) * (hi - lo) for _ in range(config.pop_size)]
    fitness = [evaluate(pos) for pos in positions[:config.max_fe]]
    while not rec.budget.exhausted:
        for i, j in _sweep(fitness, rec.budget):
            xi = positions[i]
            if j is None:
                position = xi + config.alpha * (rng.random(space.dim) - 0.5)
            else:
                d = positions[j] - xi
                beta = attractiveness(config.beta0, config.gamma, math.sqrt(d.dot(d)))
                position = xi + beta * d + config.alpha * (rng.random(space.dim) - 0.5)
            positions[i] = np.clip(position, lo, hi)
            fitness[i] = evaluate(positions[i])
    return rec.build()


def _bits(trace):
    sol = trace.final
    return ([(fe, best.hex()) for fe, best in trace.samples], sol.fitness.hex(),
            sol.solution.cont.tobytes(), sol.solution.disc)


@pytest.mark.parametrize("algo", [name for name in harness.ALGORITHMS if name != "ga"])
@given(dims=st.lists(_dims, min_size=1, max_size=6),
       budget=st.integers(1, 300), seed=st.integers(0, 2**16))
@example(dims=[Continuous(-1.0, 2.0)] * 3, budget=300, seed=0)
@example(dims=[IntegerRange(-3, 3), Categorical(("x", "y", "z"))], budget=300, seed=1)
@example(dims=[IntegerRange(5, 5), Categorical(("x",)), Continuous(0.0, 1.0)],
         budget=137, seed=2)
@settings(max_examples=30, deadline=None)
def test_fused_moves_equal_the_staged_stages(algo, dims, budget, seed):
    # the registry looks engines up in famv.harness when it runs, so the
    # staged references run under each name's own config
    fused = run_algorithm(algo, Bowl(dims), budget, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_famv", _staged_famv)
        mp.setattr(harness, "run_classical_fa", _staged_fa)
        staged = run_algorithm(algo, Bowl(dims), budget, seed)
    assert _bits(fused) == _bits(staged)
