import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_engine_properties import Bowl, _dims

from famv import (Categorical, Continuous, EvaluationBudget, FireflyConfig,
                  IntegerRange, MixedSolution, SearchSpace, get_problem, harness,
                  run_algorithm, run_classical_fa, run_famv)
from famv.core import Recorder, random_point
from famv.distances import DistanceKind, euclidean, gower, mixed_eh
from famv.firefly import (_BLOCK, _Uniforms, _explore, _sweep,
                          adapt_parameters, alpha_step_categorical,
                          alpha_step_integer, attractiveness, beta_step,
                          continuous_move, discrete_attraction_prob,
                          relaxed_decode, replacement_prob)


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
    def test_full_attraction_no_noise(self, rng):
        xi, xj = np.array([0.0, 1.0]), np.array([4.0, -2.0])
        np.testing.assert_array_equal(continuous_move(xi, xj, 1.0, 0.0, rng), xj)

    def test_no_movement(self, rng):
        xi, xj = np.array([0.0, 1.0]), np.array([4.0, -2.0])
        np.testing.assert_array_equal(continuous_move(xi, xj, 0.0, 0.0, rng), xi)

    def test_noise_law(self, rng):
        # pure alpha * (u - 1/2) noise: mean 0, support within [-alpha/2, alpha/2]
        samples = np.array([continuous_move(np.zeros(1), np.zeros(1), 0.0, 2.0, rng)[0]
                            for _ in range(10_000)])
        assert abs(samples.mean()) < 0.05
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            continuous_move(np.zeros(2), np.zeros(3), 1.0, 0.0, rng)


class TestBetaStep:
    space = SearchSpace([Categorical(("a", "b")), Categorical(("a", "b")),
                         IntegerRange(0, 9)])

    def step(self, xi, xj, prob, rng):
        enc = self.space.encode
        return self.space.decode(beta_step(self.space, enc(xi), enc(xj), prob, rng))

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
           st.lists(st.tuples(st.integers(0, 5),
                              st.one_of(st.integers(0, 40), st.integers(_BLOCK - 3, _BLOCK + 3)),
                              st.integers(0, 40), st.integers(0, 40)), max_size=12))
    def test_move_forms_come_from_the_same_stream(self, seed, calls):
        # each call: random(k), then move(n_c, m, n_d)
        uniforms = _Uniforms(np.random.default_rng(seed))
        u = np.random.default_rng(seed).random(sum(map(sum, calls)))
        pos = 0
        for k, n_c, m, n_d in calls:
            np.testing.assert_array_equal(uniforms.random(k), u[pos:pos + k])
            a = pos + k
            noise, copy, eps = uniforms.move(n_c, m, n_d)
            assert not any(x.flags.writeable for x in (noise, copy, eps))
            assert noise.tobytes() == (u[a:a + n_c] - 0.5).tobytes()
            assert copy.tobytes() == u[a + n_c:a + n_c + m].tobytes()
            assert eps.tobytes() == (2.0 * u[a + n_c + m:a + n_c + m + n_d] - 1.0).tobytes()
            pos = a + n_c + m + n_d

    def test_writing_into_uniforms_raises(self):
        with pytest.raises(ValueError):
            _Uniforms(np.random.default_rng(0)).random(3)[0] = 0.5


class TestAlphaStepInteger:
    def test_zero_alpha_keeps_value(self, rng):
        codes = np.array([0, 5, 10])
        np.testing.assert_array_equal(alpha_step_integer(codes, 0, 10, 0.0, rng), codes)

    def test_lower_boundary_clamped(self, rng):
        assert alpha_step_integer(np.full(500, 3), 3, 10, 0.9, rng).min() >= 3

    def test_step_law(self, rng):
        samples = alpha_step_integer(np.full(10_000, 5), 0, 10, 1.5, rng)
        assert samples.dtype == np.int64
        assert set(np.unique(samples)) <= {3, 4, 5, 6, 7}
        assert abs(samples.mean() - 5.0) < 0.05


class _LargestUniform:
    """A stand-in generator whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


class TestAlphaStepCategorical:
    def test_zero_probability_keeps_value(self, rng):
        codes = np.array([0, 2, 1])
        out = alpha_step_categorical(codes, np.array([3, 3, 3]), 0.0, rng)
        np.testing.assert_array_equal(out, codes)

    def test_uniform_replacement(self, rng):
        trials = 30_000
        out = alpha_step_categorical(np.zeros(trials, dtype=np.int64),
                                     np.full(trials, 3), 1.0, rng)
        for share in np.bincount(out, minlength=3) / trials:
            assert abs(share - 1.0 / 3.0) < 0.02

    def test_singleton_forced(self, rng):
        out = alpha_step_categorical(np.array([0]), np.array([1]), 1.0, rng)
        np.testing.assert_array_equal(out, [0])

    def test_largest_uniform_redraws_the_last_symbol(self):
        sizes = np.array([1, 2, 3, 201, 1201, 2 ** 22 - 1, 2 ** 53 - 1, 2 ** 53])
        out = alpha_step_categorical(np.zeros(len(sizes), dtype=np.int64), sizes, 1.0,
                                     _LargestUniform())
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, sizes - 1)


class TestAlphaStepAll:
    def test_no_replacement_keeps_categories_and_bounds(self, rng):
        space = SearchSpace([IntegerRange(-2, 4), Continuous(0.0, 1.0),
                             Categorical(("x", "y", "z")), IntegerRange(7, 7),
                             Categorical(tuple(range(9)))])
        codes = np.array([0, 2, 7, 5])
        for _ in range(200):
            out = _explore(space, codes, 1e6, 0.0, 2.0 * rng.random(space.n_d) - 1.0, rng)
            np.testing.assert_array_equal(out[space.cat_idx], codes[space.cat_idx])
            assert MixedSolution(np.zeros(1), space.decode(out)).conforms(space)
        assert set(out[[0, 2]]) <= {-2, 4, 7}


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


class TestRelaxation:
    def test_bounds(self, mixed_space):
        np.testing.assert_allclose(mixed_space.lo, [-5.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(mixed_space.hi, [5.0, 10.0, 9.0, 2.0])

    def test_decode_nearest_index(self, mixed_space):
        cont, codes = relaxed_decode(mixed_space, np.array([0.0, 5.0, 3.2, 1.4]))
        np.testing.assert_array_equal(codes, [3, 1])
        assert codes.dtype == np.int64
        assert mixed_space.decode(codes) == (3, "b")
        assert MixedSolution(cont, mixed_space.decode(codes)).conforms(mixed_space)

    def test_decode_rounds_and_clamps(self, mixed_space):
        cont, codes = relaxed_decode(mixed_space, np.array([7.0, -1.0, 12.6, 9.0]))
        np.testing.assert_array_equal(cont, [5.0, 0.0])
        np.testing.assert_array_equal(codes, [9, 2])
        assert mixed_space.decode(codes) == (9, "c")

    def test_decode_rounds_half_away_from_zero(self):
        space = SearchSpace([IntegerRange(-5, 5)] * 4)
        cont, codes = relaxed_decode(space, np.array([-1.5, -0.4, 0.5, 2.5]))
        assert len(cont) == 0
        np.testing.assert_array_equal(codes, [-2, 0, 1, 3])
        disc = space.decode(codes)
        assert disc == (-2, 0, 1, 3)
        assert all(type(v) is int for v in disc)

    def test_decode_length_check(self, mixed_space):
        with pytest.raises(ValueError):
            relaxed_decode(mixed_space, np.zeros(3))


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


def _staged_famv(problem, config: FireflyConfig):
    """run_famv with every move made of the public stages, each drawing its
    own uniforms: the distance on decoded solutions, `continuous_move`,
    `beta_step`, `alpha_step_integer` on every code, then
    `alpha_step_categorical` on the categorical ones."""
    space = problem.space
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    measure = {DistanceKind.MIXED_EH: mixed_eh, DistanceKind.GOWER: gower}[config.distance]
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
            if j is None:
                cont = conts[i] + alpha * (rng.random(space.n_c) - 0.5)
                disc = codes[i]
            else:
                r = measure(space, MixedSolution(conts[i], space.decode(codes[i])),
                            MixedSolution(conts[j], space.decode(codes[j])))
                cont = continuous_move(conts[i], conts[j],
                                       attractiveness(config.beta0, gamma, r), alpha, rng)
                disc = beta_step(space, codes[i], codes[j],
                                 discrete_attraction_prob(gamma, r), rng)
            codes[i] = alpha_step_integer(disc, space.disc_lo, space.disc_hi, alpha, rng)
            codes[i][cats] = alpha_step_categorical(disc[cats], space.cat_sizes, p_alpha, rng)
            conts[i] = np.clip(cont, space.cont_lo, space.cont_hi)
            fitness[i] = rec.evaluate(conts[i], codes[i])
    return rec.build()


def _staged_fa(problem, config: FireflyConfig):
    """run_classical_fa with `euclidean`, `continuous_move` and
    `relaxed_decode` on every move."""
    space = problem.space
    rng = _Uniforms(np.random.default_rng(config.seed))
    rec = Recorder(problem, config.max_fe)
    lo, hi = space.lo, space.hi
    positions = [lo + rng.random(space.dim) * (hi - lo) for _ in range(config.pop_size)]
    fitness = [rec.evaluate(*relaxed_decode(space, pos)) for pos in positions[:config.max_fe]]
    while not rec.budget.exhausted:
        for i, j in _sweep(fitness, rec.budget):
            if j is None:
                position = positions[i] + config.alpha * (rng.random(space.dim) - 0.5)
            else:
                beta = attractiveness(config.beta0, config.gamma,
                                      euclidean(positions[i], positions[j]))
                position = continuous_move(positions[i], positions[j], beta, config.alpha, rng)
            positions[i] = np.clip(position, lo, hi)
            fitness[i] = rec.evaluate(*relaxed_decode(space, positions[i]))
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
