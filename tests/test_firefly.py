import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import encode
from test_engine_properties import Bowl, _dims

from famv import (Categorical, Continuous, EvaluationBudget, FireflyConfig,
                  IntegerRange, MixedSolution, SearchSpace, get_problem, harness,
                  run_algorithm, run_classical_fa, run_famv)
from famv import firefly
from famv.core import Recorder
from famv.distances import DistanceKind
from famv.firefly import (_BLOCK, _Uniforms, _attract, _clip, _integer_step, _round_codes,
                          _round_ints, _sweep, adapt_parameters, alpha_step_categorical,
                          attractiveness, beta_step, replacement_prob)


def _decay(gamma, r):
    """exp(-gamma r^2), the decay e of a move at distance r: beta / beta0
    and the copy probability of each differing code."""
    return math.exp(-gamma * r * r)


class TestAttractiveness:
    """`attractiveness(beta0, e)` is beta0 e; the copy probability is e
    itself."""

    def test_is_beta0_times_e(self, rng):
        for beta0, e in zip(rng.uniform(0.1, 5.0, 50), rng.uniform(0.0, 1.0, 50)):
            assert attractiveness(beta0, e) == beta0 * e

    def test_zero_distance_gives_beta0(self):
        assert attractiveness(1.5, _decay(0.1, 0.0)) == 1.5

    def test_unit_distance(self):
        assert attractiveness(1.5, _decay(0.1, 1.0)) == pytest.approx(1.35726, abs=1e-5)

    def test_gamma_zero_never_decays(self):
        assert attractiveness(1.5, _decay(0.0, 123.0)) == 1.5

    def test_strictly_decreasing_in_r(self, rng):
        radii = np.sort(rng.uniform(0.0, 5.0, size=50))
        values = [attractiveness(1.5, _decay(0.1, r)) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_coincident_fireflies_copy_with_certainty(self):
        assert _decay(0.1, 0.0) == 1.0

    def test_copy_probability_known_values(self):
        assert _decay(0.1, 2.0) == pytest.approx(0.67032, abs=1e-5)
        assert _decay(0.1, 10.0) == pytest.approx(4.54e-5, rel=1e-2)

    def test_copy_probability_strictly_decreasing_in_r(self, rng):
        radii = np.sort(rng.uniform(0.0, 5.0, size=50))
        values = [_decay(0.1, r) for r in radii]
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


def _columns(row, n_c, n_d, n_cat):
    """A move's row split into its noise, copy, step, flag and redraw columns."""
    return np.split(row, np.cumsum([n_c, n_d, n_d, n_cat]))


class TestUniforms:
    """`_Uniforms(rng, n_c, n_d, n_cat).move()` serves one read-only row of
    w = n_c + 2 n_d + 2 n_cat doubles per call, the noise and step columns
    formed by the alpha last given to ``scale`` and raw u elsewhere."""

    @staticmethod
    def _assert_rows(seed, widths, calls):
        """Run ``calls``, each ``(alpha, moves)``: scale(alpha) unless alpha
        is None, then that many moves; every row must be the next w doubles
        of one flat draw, read-only, its noise and step columns in their
        alpha forms and its other columns raw, and ``columns`` must slice
        the row into its five groups."""
        n_c, n_d, n_cat = widths
        width = n_c + 2 * n_d + 2 * n_cat
        uniforms = _Uniforms(np.random.default_rng(seed), n_c, n_d, n_cat)
        flat = np.random.default_rng(seed).random(sum(k for _, k in calls) * width)
        rows = iter(flat.reshape(-1, width))
        alpha = 1.0
        for new_alpha, moves in calls:
            if new_alpha is not None:
                uniforms.scale(new_alpha)
                alpha = new_alpha
            for _ in range(moves):
                row = uniforms.move()
                assert not row.flags.writeable and row.shape == (width,)
                noise, copy, step, flags, redraw = (row[s] for s in uniforms.columns)
                u_noise, u_copy, u_step, u_flags, u_redraw = _columns(next(rows), *widths)
                assert noise.tobytes() == (alpha * (u_noise - 0.5)).tobytes()
                assert copy.tobytes() == u_copy.tobytes()
                assert step.tobytes() == (alpha * (2.0 * u_step - 1.0)).tobytes()
                assert flags.tobytes() == u_flags.tobytes()
                assert redraw.tobytes() == u_redraw.tobytes()

    def test_chunks_are_one_read_only_stream(self):
        # three blocks and a row of a fourth, at the default alpha; a row
        # wider than a block makes a block of one row
        for widths in [(1, 0, 0), (0, 1, 1), (3, 2, 1), (_BLOCK + 3, 1, 1)]:
            rows = max(1, _BLOCK // (widths[0] + 2 * widths[1] + 2 * widths[2]))
            self._assert_rows(5, widths, [(None, 3 * rows + 1)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.tuples(st.integers(0, 40), st.integers(0, 12), st.integers(0, 6)),
           st.lists(st.tuples(st.one_of(st.none(), st.floats(1e-3, 1e3)), st.integers(0, 300)),
                    max_size=8))
    # alpha changes mid-block, then moves cross the block boundary under it,
    # then alpha changes again in the new block
    @example(seed=3, widths=(10, 5, 3), calls=[(None, 2), (0.25, 100), (None, 40), (7.5, 3)])
    def test_move_forms_come_from_the_same_stream(self, seed, widths, calls):
        assume(sum(widths))
        self._assert_rows(seed, widths, calls)

    def test_writing_into_uniforms_raises(self):
        uniforms = _Uniforms(np.random.default_rng(0), 2, 2, 1)
        uniforms.scale(0.5)
        row = uniforms.move()
        for k in range(len(row)):   # every column group: w = 2 + 2 * 2 + 2 * 1
            with pytest.raises(ValueError):
                row[k] = 0.5

    def test_repeated_scale_keeps_the_forms(self):
        uniforms = _Uniforms(np.random.default_rng(0), 2, 2, 1)
        uniforms.move()
        uniforms.scale(0.5)
        block = uniforms._block
        uniforms.scale(0.5)
        assert uniforms._block is block

    def test_new_alpha_recomputes_the_forms(self):
        uniforms = _Uniforms(np.random.default_rng(0), 2, 2, 1)
        uniforms.move()
        uniforms.scale(0.5)
        block = uniforms._block
        uniforms.scale(0.25)
        assert uniforms._block is not block
        row = uniforms.move()
        u = np.random.default_rng(0).random(2 * 8)[8:]   # w = 2 + 2 * 2 + 2 * 1
        assert row[:2].tobytes() == (0.25 * (u[:2] - 0.5)).tobytes()
        assert row[4:6].tobytes() == (0.25 * (2.0 * u[4:6] - 1.0)).tobytes()

    def test_a_new_alpha_forms_only_the_unread_rows(self, monkeypatch):
        # rows formed per row read: a block is formed once when it is drawn,
        # and a new alpha, here every 100 moves over three blocks, forms only
        # the block's rows not yet read
        formed, rescale = [], _Uniforms._rescale

        def counting(self):
            rescale(self)
            formed.append(len(self._block))

        monkeypatch.setattr(_Uniforms, "_rescale", counting)
        uniforms = _Uniforms(np.random.default_rng(0), 2, 2, 0)
        rows = _BLOCK // 6
        for t in range(3 * rows):
            if t % 100 == 0:
                uniforms.scale(2.0 + t)
            uniforms.move()
        unread = [(rows - t % rows) % rows for t in range(0, 3 * rows, 100)]
        assert sum(formed) == 3 * rows + sum(unread)
        self._assert_rows(0, (2, 2, 0), [(2.0 + t, 100) for t in range(0, 3 * rows, 100)])

    def test_block_crossing_after_a_skipped_scale(self):
        # the first block is scaled by 0.5 once, the repeat is skipped, and
        # the move that starts the next block must get its forms at 0.5
        n_c, n_d = 3, 3
        rows = _BLOCK // (n_c + 2 * n_d)
        uniforms = _Uniforms(np.random.default_rng(0), n_c, n_d, 0)
        uniforms.scale(0.5)
        for _ in range(rows):
            uniforms.move()
        uniforms.scale(0.5)
        row = uniforms.move()
        u = np.random.default_rng(0).random((rows + 1) * (n_c + 2 * n_d))[-(n_c + 2 * n_d):]
        assert row[:n_c].tobytes() == (0.5 * (u[:n_c] - 0.5)).tobytes()
        assert row[n_c + n_d:].tobytes() == (0.5 * (2.0 * u[n_c + n_d:] - 1.0)).tobytes()


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "famv-h-adaptive"])
@given(dims=st.lists(_dims, min_size=1, max_size=6), budget=st.integers(1, 300),
       seed=st.integers(0, 2 ** 16))
@example(dims=[IntegerRange(5, 5), Categorical(("x",)), Categorical(("x", "y", "z")),
               Continuous(0.0, 1.0)], budget=300, seed=0)
@settings(max_examples=20, deadline=None)
def test_one_row_of_w_doubles_per_move(algo, dims, budget, seed):
    # after the first population every FE reads one row of the stream, of a
    # width fixed by the space: n for fa's relaxed box, n_c + 2 n_d + 2 n_cat
    # for famv, whatever the positions
    space = SearchSpace(dims)
    width = space.dim if algo == "fa" else space.n_c + 2 * space.n_d + 2 * len(space.cat_idx)
    move, widths = _Uniforms.move, []

    def recording(self):
        row = move(self)
        widths.append(len(row))
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Uniforms, "move", recording)
        run_algorithm(algo, Bowl(dims), budget, seed)
    assert widths == [width] * (budget - min(FireflyConfig(max_fe=budget).pop_size, budget))


def _admitted(code: int) -> bool:
    try:
        IntegerRange(code, code)
    except ValueError:
        return False
    return True


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

    @pytest.mark.parametrize("form", ["array", "tuple"])
    def test_zero_step_keeps_every_code_of_the_widest_ranges(self, form):
        # the codes an IntegerRange admits nearest the float64 limits, stepped by
        # zero inside bounds wider than any of them: rounding v + 1/2 is exact
        # only within 2**52, so no admitted code may move.  fa's scalar form
        # rounds as `_round_ints` does, int(v + 1/2) or int(v - 1/2); famv's
        # inline step is pinned at these codes by test_scalar_form_equals_array_form
        codes = [c for b in (2 ** 52, 2 ** 53) for c in (b - 1, b, b + 1, 1 - b, -b, -b - 1)
                 if _admitted(c)]
        assert sorted(codes) == [-2 ** 52, 1 - 2 ** 52, 2 ** 52 - 1, 2 ** 52]
        zero, lo, hi = np.zeros(len(codes)), [-2 ** 53] * len(codes), [2 ** 53] * len(codes)
        if form == "array":
            stepped = _integer_step(np.array(codes), np.array(lo, float), np.array(hi, float), zero)
            assert stepped.tolist() == codes
        else:
            assert _round_ints([c + 0.0 for c in codes]) == codes


@pytest.mark.parametrize("problem", [
    get_problem("vessel"),                                       # the scalar form
    get_problem("rastrigin", dim=20),                            # famv's scalar form
    get_problem("rastrigin", dim=30),                            # the array form
    Bowl([Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y", "z"))]),
], ids=lambda p: p.name + str(p.space.n_d))
def test_huge_alpha_runs_without_overflow(problem):
    # alpha (2u - 1) is past every int64: the sum is clipped before it is
    # rounded and cast, so no cast overflows and every code stays in bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_famv(problem, FireflyConfig(max_fe=200, alpha=1e19))
    assert trace.final.solution.conforms(problem.space)


_LARGEST = np.nextafter(1.0, 0.0)   # the largest uniform, just below 1


class TestAlphaStepCategorical:
    """`alpha_step_categorical(codes, cat_idx, sizes, flags, p, redraw)`
    redraws ``codes[cat_idx[k]]`` in place as floor(redraw[k] * sizes[k])
    for each flag below p."""

    def test_zero_probability_keeps_value(self, rng):
        codes = np.array([0, 2, 1])
        out = alpha_step_categorical(codes.copy(), np.arange(3), np.array([3, 3, 3]),
                                     rng.random(3), 0.0, rng.random(3))
        np.testing.assert_array_equal(out, codes)

    def test_uniform_replacement(self, rng):
        trials = 30_000
        out = alpha_step_categorical(np.zeros(trials, dtype=np.int64), np.arange(trials),
                                     np.full(trials, 3), np.zeros(trials), 1.0,
                                     rng.random(trials))
        for share in np.bincount(out, minlength=3) / trials:
            assert abs(share - 1.0 / 3.0) < 0.02

    def test_singleton_forced(self):
        out = alpha_step_categorical(np.array([0]), np.arange(1), np.array([1]),
                                     np.zeros(1), 1.0, np.full(1, _LARGEST))
        np.testing.assert_array_equal(out, [0])

    def test_largest_uniform_redraws_the_last_symbol(self):
        sizes = np.array([1, 2, 3, 201, 1201, 2 ** 22 - 1, 2 ** 53 - 1, 2 ** 53])
        out = alpha_step_categorical(np.zeros(len(sizes), dtype=np.int64),
                                     np.arange(len(sizes)), sizes, np.zeros(len(sizes)), 1.0,
                                     np.full(len(sizes), _LARGEST))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, sizes - 1)

    def test_float_sizes_redraw_as_the_int_sizes(self):
        # the firefly loop passes its sizes as float64: exact up to 2**53, so
        # u * size is the same double and every redrawn code the same
        sizes = np.array([1, 2, 3, 201, 1201, 2 ** 22 - 1, 2 ** 53 - 1, 2 ** 53])
        for redraw in (np.full(len(sizes), _LARGEST), np.random.default_rng(7).random(len(sizes))):
            codes = [alpha_step_categorical(np.zeros(len(sizes), dtype=np.int64),
                                            np.arange(len(sizes)), s, np.zeros(len(sizes)),
                                            1.0, redraw)
                     for s in (sizes, sizes.astype(float))]
            assert codes[1].dtype == np.int64
            np.testing.assert_array_equal(codes[1], codes[0])

    def test_flags_pick_the_codes_redrawn_in_place(self):
        # codes 1, 3 and 4 are categorical; only code 4's flag is below p,
        # and code 4 is redrawn from its own redraw double
        codes = np.array([5, 0, 7, 1, 0])
        out = alpha_step_categorical(codes, np.array([1, 3, 4]), np.array([4, 2, 6]),
                                     np.array([0.5, 0.25, 0.2]), 0.25,
                                     np.array([0.9, 0.9, _LARGEST]))
        assert out is codes
        np.testing.assert_array_equal(out, [5, 0, 7, 1, 5])

    def test_a_flag_just_below_p_redraws_below_size(self):
        # the flag rescaled as flag * (1 / p) rounds to 1 here, which would
        # give the code `size`; the code's own redraw double keeps it below
        p, size = 0.8158535541215322, 3.0
        flag = np.nextafter(p, 0.0)
        assert math.floor(flag * (1.0 / p) * size) == size
        out = alpha_step_categorical(np.zeros(1, dtype=np.int64), np.arange(1),
                                     np.array([size]), np.array([flag]), p,
                                     np.full(1, _LARGEST))
        np.testing.assert_array_equal(out, [size - 1])


class TestAlphaStepAll:
    """The exploration step as run_famv takes it on a whole code vector: the
    integer step on every code, each categorical code back to its pre-step
    value, then the redraws."""

    def test_no_replacement_keeps_categories_and_bounds(self, rng):
        space = SearchSpace([IntegerRange(-2, 4), Continuous(0.0, 1.0),
                             Categorical(("x", "y", "z")), IntegerRange(7, 7),
                             Categorical(tuple(range(9)))])
        codes = np.array([0, 2, 7, 5])
        for _ in range(200):
            step = 1e6 * (2.0 * rng.random(space.n_d) - 1.0)
            stepped = _integer_step(codes, space.disc_lo, space.disc_hi, step)
            stepped[space.cat_idx] = codes[space.cat_idx]
            out = alpha_step_categorical(stepped, space.cat_idx, space.cat_sizes.astype(float),
                                         rng.random(2), 0.0, rng.random(2))
            np.testing.assert_array_equal(out[space.cat_idx], codes[space.cat_idx])
            assert MixedSolution(np.zeros(1), space.decode(out)).conforms(space)
        assert set(out[[0, 2]]) <= {-2, 4, 7}

    @pytest.mark.parametrize("dims", [
        [IntegerRange(-2, 4), IntegerRange(0, 9)],
        [Categorical(("x", "y", "z")), Categorical(tuple(range(9)))],
        [IntegerRange(-2, 4), Categorical(("x", "y", "z")), IntegerRange(0, 9),
         Categorical(tuple(range(9))), IntegerRange(7, 7)],
    ], ids=["no-categorical", "all-categorical", "interleaved"])
    def test_index_form_equals_the_where_form(self, dims, rng):
        # the loop puts the pre-step categorical codes back by index, on the
        # fresh array the integer step returns
        space = SearchSpace(dims)
        is_cat = np.zeros(space.n_d, dtype=bool)
        is_cat[space.cat_idx] = True
        for _ in range(200):
            codes = space.disc_lo + (rng.random(space.n_d) * space.disc_sizes).astype(np.int64)
            step = 3.0 * (2.0 * rng.random(space.n_d) - 1.0)
            stepped = _integer_step(codes, space.disc_lo, space.disc_hi, step)
            where = np.where(is_cat, codes, stepped)
            stepped[space.cat_idx] = codes[space.cat_idx]
            assert stepped.dtype == where.dtype
            assert stepped.tobytes() == where.tobytes()


_CATEGORY_SPACES = {
    False: [Continuous(-1.0, 2.0), IntegerRange(-3, 3)],
    True: [Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y", "z"))],
    # mixed-cat's layout and size, which famv runs in the scalar form
    "8+8+8": [Continuous(-10.0, 10.0), IntegerRange(0, 20), Categorical(tuple("abcdef"))] * 8,
}


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g"])
@pytest.mark.parametrize("categorical", list(_CATEGORY_SPACES))
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
    run_algorithm(algo, Bowl(_CATEGORY_SPACES[categorical]), budget, 0)
    pop_size = FireflyConfig(max_fe=budget).pop_size
    moves = max(0, budget - pop_size) if categorical and algo != "fa" else 0
    assert calls == moves


def _count_sweeps(monkeypatch) -> dict:
    """Wrap `_sweep`, which the firefly loop looks up at call time; the dict
    returned counts its sweeps and its attracting moves, the yields with a
    brighter firefly."""
    seen = {"sweeps": 0, "moves": 0}
    sweep = firefly._sweep

    def counting(fitness, budget):
        seen["sweeps"] += 1
        for i, j in sweep(fitness, budget):
            seen["moves"] += j is not None
            yield i, j

    monkeypatch.setattr(firefly, "_sweep", counting)
    return seen


class _CountingMath:
    """`math`, counting the calls of its ``exp``."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, x):
        self.exp_calls += 1
        return math.exp(x)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "famv-h-adaptive"])
@pytest.mark.parametrize("dims", [
    [Continuous(-1.0, 2.0)] * 2,
    [Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y", "z"))],
], ids=["continuous", "mixed"])
def test_one_exp_per_attracting_move(algo, dims, monkeypatch):
    # one decay e per move gives both beta and the copy probability; the
    # other exp of a sweep is replacement_prob's, which only famv computes,
    # and only on a space with a categorical code
    seen = _count_sweeps(monkeypatch)
    counting = _CountingMath()
    monkeypatch.setattr(firefly, "math", counting)
    run_algorithm(algo, Bowl(dims), 300, 0)
    assert seen["moves"] > 0
    categorical = algo != "fa" and any(isinstance(d, Categorical) for d in dims)
    assert counting.exp_calls == seen["moves"] + seen["sweeps"] * categorical


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g"])
@pytest.mark.parametrize("budget", [1, 26, 300])
def test_attractiveness_runs_once_per_attracting_move(algo, budget, monkeypatch):
    # bench/run.py counts this name's calls and reads the beta each returns
    seen = _count_sweeps(monkeypatch)
    calls = []

    def recording(beta0, e):
        beta = attractiveness(beta0, e)
        calls.append((beta0, e, beta))
        return beta

    monkeypatch.setattr(firefly, "attractiveness", recording)
    beta0 = FireflyConfig(max_fe=budget).beta0
    # a mixed space, whose codes are arrays, and an integer-only one, whose
    # codes famv keeps as tuples
    for dims in ([Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y", "z"))],
                 [Continuous(-1.0, 2.0), IntegerRange(-3, 3), IntegerRange(0, 9)]):
        calls.clear()
        seen.update(moves=0)
        run_algorithm(algo, Bowl(dims), budget, 0)
        assert len(calls) == seen["moves"]
        assert seen["moves"] > 0 or budget < 300
        assert all(b0 == beta0 and 0.0 <= e <= 1.0 and beta == beta0 * e
                   for b0, e, beta in calls)


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

    @pytest.mark.parametrize("name", ["beta0", "alpha", "gamma", "k"])
    @pytest.mark.parametrize("value", ["x", None, True, np.False_, 1j])
    def test_rejects_a_non_real_setting_by_name(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got {value!r}$"):
            FireflyConfig(max_fe=50, **{name: value})

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
    # on the same space does both on every move.  Both run the array form,
    # whose code steps are functions
    calls = {"_copy_differing": 0, "_integer_step": 0}
    monkeypatch.setattr(firefly, "_SCALAR_DIMS_FAMV", -1)
    monkeypatch.setattr(firefly, "_SCALAR_DIMS_FA", -1)

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


_MIXED = [Continuous(-10.0, 10.0), IntegerRange(0, 20), Categorical(tuple("abcdef"))] * 8


@pytest.mark.parametrize("problem, famv_scalar, fa_scalar", [
    (get_problem("vessel"), True, True),
    (get_problem("beam"), True, True),
    (Bowl(_MIXED), True, False),
    (Bowl(_MIXED + [Continuous(-1.0, 2.0)]), False, False),
    (Bowl([Continuous(-1.0, 2.0)] + [IntegerRange(-3, 3)] * 30), False, False),
], ids=["vessel", "beam", "8+8+8", "25-dims", "30-integers"])
def test_code_form_follows_the_size_rule(problem, famv_scalar, fa_scalar, monkeypatch):
    # famv runs a space of at most 24 dimensions in the scalar form, and fa
    # one of at most 14, categorical or not; a larger space runs the array
    # form.  Only the array form steps its codes with `_integer_step`, once
    # per move, and decodes with `decode`, once per FE: famv its codes and fa
    # its rounded slots, on a space with a categorical dimension only; fa's
    # rounded integer codes are already the values.  The scalar form
    # converts its row with one tolist() per move, fa's included, and
    # decodes symbols with `decode_ints` only on a space with a categorical
    # dimension; the array form's categorical step converts its flag and
    # redraw columns with one tolist() per move
    calls = {"_integer_step": 0, "decode": 0, "decode_ints": 0, "tolist": 0}

    def counting(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    class Row(np.ndarray):
        """A row whose tolist() calls, its slices' included, are counted;
        what a ufunc makes of it is a plain array."""
        tolist = counting("tolist", np.ndarray.tolist)

        def __array_wrap__(self, arr, context=None, return_scalar=False):
            arr = arr.view(np.ndarray)
            return arr[()] if return_scalar else arr

    monkeypatch.setattr(firefly, "_integer_step", counting("_integer_step", firefly._integer_step))
    for name in ("decode", "decode_ints"):
        monkeypatch.setattr(SearchSpace, name, counting(name, getattr(SearchSpace, name)))
    move = _Uniforms.move
    monkeypatch.setattr(_Uniforms, "move", lambda self: move(self).view(Row))
    moves = 300 - FireflyConfig(max_fe=300).pop_size
    space = problem.space
    n_cat = len(space.cat_idx)
    for algo in ("famv-h", "famv-g", "fa"):
        scalar = famv_scalar if algo != "fa" else fa_scalar
        codes = bool(space.n_d) and algo != "fa"
        calls.update(dict.fromkeys(calls, 0))
        run_algorithm(algo, problem, 300, 0)
        assert calls == {
            "_integer_step": moves * (codes and not scalar),
            "decode": 300 * (not scalar and (algo != "fa" or bool(n_cat))),
            "decode_ints": 300 * (scalar and bool(n_cat)),
            "tolist": moves if scalar else moves * (codes and bool(n_cat))}, algo


class _TypeChecking:
    """An objective that checks the types of every point it is called with:
    ``cont`` a float64 vector of n_c, and each value of ``disc`` an ``int``
    (not a numpy integer) or one of its dimension's own symbols."""

    name, reference_optimum = "types", 0.0

    def __init__(self, dims):
        self.space, self.calls = SearchSpace(dims), 0

    def __call__(self, sol):
        self.calls += 1
        assert type(sol.cont) is np.ndarray and sol.cont.dtype == np.float64
        assert sol.cont.shape == (self.space.n_c,)
        assert type(sol.disc) is tuple and len(sol.disc) == self.space.n_d
        for v, d in zip(sol.disc, self.space.discrete):
            if isinstance(d, IntegerRange):
                assert type(v) is int and d.lo <= v <= d.hi, (v, d)
            else:
                assert any(v is symbol for symbol in d.values), (v, d)
        return float(np.sum(sol.cont ** 2)) + sum(v for v in sol.disc if type(v) is int)


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "ga"])
@pytest.mark.parametrize("scalar_dims", [-1, 10 ** 6])
@pytest.mark.parametrize("dims", [
    [Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical((0, "one", 2.5)),
     Categorical(("x", "y", "z"))] * 2,
    [IntegerRange(-3, 3), IntegerRange(0, 9)] * 3,
], ids=["mixed", "integers"])
def test_every_engine_hands_its_objective_ints_and_symbols(algo, scalar_dims, dims, monkeypatch):
    # only each engine's evaluation map builds the value tuple, in both
    # firefly forms: a value is a Python int or a symbol, never a numpy integer
    monkeypatch.setattr(firefly, "_SCALAR_DIMS_FAMV", scalar_dims)
    monkeypatch.setattr(firefly, "_SCALAR_DIMS_FA", scalar_dims)
    problem = _TypeChecking(dims)
    run_algorithm(algo, problem, 300, 0)
    assert problem.calls == 300


@pytest.mark.parametrize("dims, rounds", [
    ([Continuous(-1.0, 2.0)] * 3, {"_round_codes": 0, "_round_ints": 0}),
    ([Continuous(-1.0, 2.0), IntegerRange(-3, 3)], {"_round_codes": 0, "_round_ints": 300}),
    ([Continuous(-1.0, 2.0), IntegerRange(-3, 3), Categorical(("x", "y"))],
     {"_round_codes": 0, "_round_ints": 300}),
    ([Continuous(-1.0, 2.0)] * 14 + [Categorical(("x", "y"))],
     {"_round_codes": 300, "_round_ints": 0}),
], ids=["continuous", "mixed", "categorical", "15-dims"])
def test_fa_rounds_only_discrete_slots(dims, rounds, monkeypatch):
    # fa rounds its discrete slots once per FE, in the scalar form as a list
    # and in the array form (here, past fa's 14 dimensions) as an array; on
    # a space with none its position is the point, and it rounds nothing
    calls = dict.fromkeys(rounds, 0)

    def counting(name):
        original = getattr(firefly, name)

        def count(v):
            calls[name] += 1
            return original(v)
        return count

    for name in rounds:
        monkeypatch.setattr(firefly, name, counting(name))
    run_algorithm("fa", Bowl(dims), 300, 0)
    assert calls == rounds


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


def _left_sum(v) -> float:
    """((v0 + v1) + v2) + ...: the sum r is defined by, 0.0 for no term."""
    s = 0.0
    for x in v:
        s += float(x)
    return s


def _round_half_away(v):
    """sign(v) floor(|v| + 1/2): the nearest integer, halves away from zero."""
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _staged_famv(problem, config: FireflyConfig):
    """run_famv written from the formulas, on a plain generator: the first
    population is one draw of ``dim`` doubles per firefly, continuous first,
    and every move then draws one row of n_c + 2 n_d + 2 n_cat doubles,
    read column by column.  With m the number of differing codes: the
    distance (||d|| + m) / dim for mixed-EH or (sum |d| / range + m) / dim
    for Gower, d = xj - xi, each sum taken left to right; the move
    xi + beta d + alpha (u - 1/2) with
    beta = beta0 exp(-gamma r^2); code k copies xj's code when it differs
    and its copy uniform is below p = exp(-gamma r^2); the integer step
    round(c + alpha (2u - 1)) on every code, halves away from zero, then
    np.clip; each categorical code then keeps its pre-step value or, for a
    flag below p_alpha, is redrawn as floor(u * size) from its redraw
    uniform."""
    space = problem.space
    n_c, n_d, cats = space.n_c, space.n_d, space.cat_idx
    rng = np.random.default_rng(config.seed)
    rec = Recorder(problem, config.max_fe)
    first = rng.random((min(config.pop_size, config.max_fe), space.dim))
    conts = [space.cont_lo + u[:n_c] * space.cont_range for u in first]
    codes = [space.disc_lo + (u[n_c:] * space.disc_sizes).astype(np.int64) for u in first]
    fitness = [rec.evaluate(cont, space.decode(code)) for cont, code in zip(conts, codes)]
    alpha, gamma = config.alpha, config.gamma
    while not rec.budget.exhausted:
        a, g = adapt_parameters(config.alpha, config.gamma, rec.budget)
        alpha, gamma = (a if config.adapt_alpha else alpha), (g if config.adapt_gamma else gamma)
        p_alpha = replacement_prob(alpha, config.alpha, config.k, config.adapt_alpha)
        for i, j in _sweep(fitness, rec.budget):
            row = rng.random(n_c + 2 * n_d + 2 * len(cats))
            noise, u, eps, flags, redraws = _columns(row, n_c, n_d, len(cats))
            xi, ci = conts[i], codes[i]
            disc = ci.copy()
            if j is None:
                cont = xi + alpha * (noise - 0.5)
            else:
                xj, cj = conts[j], codes[j]
                d, m = xj - xi, int(np.count_nonzero(ci != cj))
                if config.distance is DistanceKind.MIXED_EH:
                    r = (math.sqrt(_left_sum(d * d)) + m) / space.dim
                else:
                    span = space.cont_hi - space.cont_lo
                    r = (_left_sum(np.abs(d) / span) + m) / space.dim
                beta = config.beta0 * math.exp(-gamma * r * r)
                cont = xi + beta * d + alpha * (noise - 0.5)
                p = math.exp(-gamma * r * r)
                for k in range(n_d):
                    if ci[k] != cj[k] and u[k] < p:
                        disc[k] = cj[k]
            stepped = _round_half_away(disc + alpha * (2.0 * eps - 1.0))
            new = np.clip(stepped, space.disc_lo, space.disc_hi).astype(np.int64)
            for k, size, flag, v in zip(cats, space.cat_sizes, flags, redraws):
                new[k] = math.floor(v * size) if flag < p_alpha else disc[k]
            codes[i] = new
            conts[i] = np.clip(cont, space.cont_lo, space.cont_hi)
            fitness[i] = rec.evaluate(conts[i], space.decode(codes[i]))
    return rec.build()


def _staged_fa(problem, config: FireflyConfig):
    """run_classical_fa written from the formulas, on a plain generator: the
    first population is one draw of ``dim`` doubles per firefly, and every
    move then draws ``dim`` doubles of noise.  The move
    xi + beta d + alpha (u - 1/2) with beta = beta0 exp(-gamma r^2) at
    r = ||d||, d = xj - xi, its squares summed left to right, then
    np.clip into the bounds; a discrete slot of the clipped position rounds
    half away from zero."""
    space = problem.space
    rng = np.random.default_rng(config.seed)
    rec = Recorder(problem, config.max_fe)
    lo, hi = space.lo, space.hi

    def evaluate(position):
        x = np.clip(position, lo, hi)
        codes = _round_half_away(x[space.disc_pos]).astype(np.int64)
        return rec.evaluate(x[space.cont_pos], space.decode(codes))

    first = rng.random((min(config.pop_size, config.max_fe), space.dim))
    positions = [lo + u * (hi - lo) for u in first]
    fitness = [evaluate(pos) for pos in positions]
    while not rec.budget.exhausted:
        for i, j in _sweep(fitness, rec.budget):
            xi = positions[i]
            noise = config.alpha * (rng.random(space.dim) - 0.5)
            if j is None:
                position = xi + noise
            else:
                d = positions[j] - xi
                r = math.sqrt(_left_sum(d * d))
                beta = config.beta0 * math.exp(-config.gamma * r * r)
                position = xi + beta * d + noise
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


def _wide_integer(lo):
    """An IntegerRange from ``lo`` of any admitted width."""
    return st.builds(lambda width: IntegerRange(lo, lo + width),
                     st.integers(0, min(2 ** 52 - lo, 2 ** 53 - 1)))


_integer_dims = st.one_of(
    st.builds(lambda lo, width: IntegerRange(lo, lo + width), st.integers(-3, 3),
              st.integers(0, 6)),
    st.integers(-2 ** 52, 2 ** 52).flatmap(_wide_integer))


class _Recording:
    """Every point it is called with, as bytes and values; NaN on each call
    whose number is a multiple of ``nan_every``, else a bowl scaled to the
    bounds plus the length of each symbol's repr that is not an int."""

    name, reference_optimum = "recording", 0.0

    def __init__(self, dims, nan_every):
        self.space, self.nan_every, self.points = SearchSpace(dims), nan_every, []

    def __call__(self, sol):
        self.points.append((sol.cont.tobytes(), sol.disc, [type(v) for v in sol.disc]))
        if len(self.points) % self.nan_every == 0:
            return math.nan
        return float(sol.cont.dot(sol.cont)) + sum(
            abs(v) / 2.0 ** 52 if type(v) is int else len(repr(v)) for v in sol.disc)


class _WideRecording(_Recording):
    """A `_Recording` whose bowl, summed in Python floats scaled by 2**-1000,
    stays finite on the widest boxes."""

    def __call__(self, sol):
        self.points.append((sol.cont.tobytes(), sol.disc, [type(v) for v in sol.disc]))
        return sum(abs(x) * 2.0 ** -1000 for x in sol.cont.tolist()) + sum(sol.disc)


# a box dimension with a bound at 0.0 or -0.0 among them: a position clipped
# there and moved by a zero, its sign kept or lost, is a tie of the clip
_box_dims = st.sampled_from([Continuous(-1.0, 2.0), Continuous(0.0, 1.0), Continuous(-0.0, 1.0),
                             Continuous(-1.0, 0.0), Continuous(-1.0, -0.0)])
# a one-value categorical, whose code never moves, and symbols of mixed types
_categorical_dims = st.sampled_from([
    Categorical(("x",)), Categorical(("a", "b", "c")),
    Categorical((0, "one", 2.5, None, ("t",), b"f")), Categorical(tuple(range(9)))])


@given(dims=st.lists(st.one_of(_box_dims, _integer_dims, _categorical_dims),
                     max_size=firefly._SCALAR_DIMS_FAMV + 3),
       algo=st.sampled_from([n for n in harness.ALGORITHMS if n != "ga"]),
       alpha=st.one_of(st.floats(0.01, 10.0), st.sampled_from([5e-324, 1e6, 1e19])),
       budget=st.one_of(st.integers(1, 300), st.sampled_from([1, 24, 25, 26, 137])),
       nan_every=st.sampled_from([1, 2, 7, 10 ** 6]), seed=st.integers(0, 2 ** 16))
@example(dims=[Continuous(-1.0, 2.0)] * 2 + [IntegerRange(1, 99)] * 2, algo="famv-h",
         alpha=1.5, budget=300, nan_every=10 ** 6, seed=0)
@example(dims=[Continuous(-1.0, 2.0), IntegerRange(-2 ** 52, 2 ** 52 - 1),
               IntegerRange(1 - 2 ** 52, 2 ** 52)],
         algo="famv-g-adaptive", alpha=1e19, budget=137, nan_every=7, seed=1)
@example(dims=[Continuous(-1.0, 2.0)] * 2, algo="famv-g", alpha=1.5, budget=300,
         nan_every=10 ** 6, seed=2)
# a noise of -0.0 moves a position at the bound -0.0 to +0.0, which the
# clip must keep, as np.maximum does on a tie
@example(dims=[Continuous(-0.0, 1.0), Continuous(-1.0, 2.0)], algo="fa", alpha=5e-324,
         budget=300, nan_every=10 ** 6, seed=0)
# mixed-cat's layout at its size, under both engines
@example(dims=[Continuous(-10.0, 10.0), IntegerRange(0, 20), Categorical(tuple("abcdef"))] * 8,
         algo="famv-h", alpha=1.5, budget=300, nan_every=10 ** 6, seed=0)
@example(dims=[Continuous(-10.0, 10.0), IntegerRange(0, 20), Categorical(tuple("abcdef"))] * 8,
         algo="fa", alpha=1.5, budget=300, nan_every=10 ** 6, seed=0)
@example(dims=[Categorical(("x",)), IntegerRange(-2, 2), Categorical((0, "one", 2.5, None))],
         algo="famv-g-adaptive", alpha=1e19, budget=137, nan_every=7, seed=3)
# the codes an IntegerRange admits nearest the float64 limits, held by a
# zero step and moved by a small one: the scalar form's inline integer step
# rounds them as `_integer_step` does
@example(dims=[IntegerRange(2 ** 52 - 3, 2 ** 52), IntegerRange(-2 ** 52, 3 - 2 ** 52),
               IntegerRange(2 ** 52 - 1, 2 ** 52), IntegerRange(-2 ** 52, 1 - 2 ** 52),
               Continuous(-1.0, 2.0)],
         algo="famv-h", alpha=5e-324, budget=300, nan_every=10 ** 6, seed=0)
@example(dims=[IntegerRange(2 ** 52 - 3, 2 ** 52), IntegerRange(-2 ** 52, 3 - 2 ** 52),
               IntegerRange(2 ** 52 - 1, 2 ** 52), IntegerRange(-2 ** 52, 1 - 2 ** 52),
               Continuous(-1.0, 2.0)],
         algo="famv-g", alpha=1.5, budget=300, nan_every=10 ** 6, seed=0)
@settings(max_examples=60, deadline=None)
def test_scalar_form_equals_array_form(dims, algo, alpha, budget, nan_every, seed):
    # any space, small or not, run in the array form and then in the scalar
    # form, each forced through both engines' size limits: the same objective
    # calls, bit for bit, and the same trace
    assume(dims)
    runs = []
    for scalar_dims in (-1, 10 ** 6):
        problem = _Recording(dims, nan_every)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(firefly, "_SCALAR_DIMS_FAMV", scalar_dims)
            mp.setattr(firefly, "_SCALAR_DIMS_FA", scalar_dims)
            trace = run_algorithm(algo, problem, budget, seed, {"alpha": alpha})
        assert trace.final.solution.conforms(problem.space)
        runs.append((problem.points, _bits(trace)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g"])
@pytest.mark.parametrize("lo, hi, alpha", [(-1e200, 1e200, 1.5), (-0.89e308, 0.89e308, 1.5),
                                           (1e308, 1.79e308, 1.79e308)])
def test_a_wide_box_moves_as_the_scalar_form_without_warnings(algo, lo, hi, alpha):
    # 25 dimensions, so both engines run the array form.  r's squares pass
    # the largest double in each box, beta * d in the second, and the best
    # firefly's idle walk xi + alpha (u - 1/2) in the third, once the budget
    # reaches it; numpy would warn of each, and Python floats give the same
    # inf silently.  The run decides from its box and alpha to take them
    # quietly, and its objective calls and trace equal the scalar form's
    dims = [Continuous(lo, hi)] * 24 + [IntegerRange(0, 3)]
    runs = []
    for scalar_dims in (-1, 10 ** 6):
        problem = _WideRecording(dims, 10 ** 6)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            mp.setattr(firefly, "_SCALAR_DIMS_FAMV", scalar_dims)
            mp.setattr(firefly, "_SCALAR_DIMS_FA", scalar_dims)
            trace = run_algorithm(algo, problem, 1000, 0, {"alpha": alpha})
        runs.append((problem.points, _bits(trace)))
    assert runs[0] == runs[1]
