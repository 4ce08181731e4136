import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _stat_reference import DATASETS, reference_dunn, reference_kruskal
from famv import compare, dunn_pairwise, holm_adjust, kruskal_wallis
from famv import stats
from famv.stats import _rank, chi2_sf, norm_sf_two_sided


class TestTailFunctions:
    @pytest.mark.parametrize("df", range(1, 41))
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, 2.0, 7.3, 25.0, 100.0, 400.0, 1e5])
    def test_chi2_against_scipy(self, x, df):
        from scipy import stats as scipy_stats
        assert chi2_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-12)

    @pytest.mark.parametrize("df", range(1, 7))
    @pytest.mark.parametrize("x", [0.0, 1e-3, 1e3, 1e308, math.inf])
    def test_chi2_at_the_ends_against_scipy(self, x, df):
        # at +inf the finite sum would take 0 * log(inf), a NaN
        from scipy import stats as scipy_stats
        assert chi2_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-12)

    @pytest.mark.parametrize("x,df", [(1.0, 0), (1.0, 2.5), (-1.0, 2)])
    def test_chi2_rejects_bad_arguments(self, x, df):
        with pytest.raises(ValueError):
            chi2_sf(x, df)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.96, -2.5, 4.0])
    def test_normal_against_scipy(self, z):
        from scipy import stats as scipy_stats
        assert norm_sf_two_sided(z) == pytest.approx(
            2.0 * scipy_stats.norm.sf(abs(z)), abs=1e-12)


@given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=10),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_midranks_match_scipy_rankdata(samples):
    from scipy.stats import rankdata
    groups = {f"g{k}": [float(v) for v in values] for k, values in enumerate(samples)}
    ranks, mean_rank, tie_term, n = _rank(groups, least=1)
    pooled = np.concatenate(list(groups.values()))
    assert np.concatenate(list(ranks.values())).tolist() == rankdata(pooled).tolist()
    assert tie_term == sum(t ** 3 - t for t in Counter(pooled.tolist()).values())
    assert mean_rank == {name: float(np.mean(r)) for name, r in ranks.items()}
    assert n == len(pooled)


class TestKruskalWallis:
    def test_identical_groups(self):
        h, p = kruskal_wallis({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        assert h == 0.0 and p == 1.0

    def test_three_group_example_matches_reference(self):
        groups = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0], "c": [7.0, 8.0, 9.0]}
        h, p = kruskal_wallis(groups)
        ref_h, ref_p = reference_kruskal(groups)
        assert h == pytest.approx(ref_h, abs=1e-10)
        assert p == pytest.approx(ref_p, abs=1e-10)

    def test_label_permutation_invariance(self):
        groups = {"a": [1.0, 5.0, 9.0], "b": [2.0, 6.0, 7.0], "c": [3.0, 4.0, 8.0]}
        swapped = {"c": groups["a"], "a": groups["b"], "b": groups["c"]}
        assert kruskal_wallis(groups)[0] == pytest.approx(
            kruskal_wallis(swapped)[0], abs=1e-12)

    def test_monotone_transform_invariance(self):
        groups = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}
        cubed = {k: [v ** 3 for v in vals] for k, vals in groups.items()}
        assert kruskal_wallis(groups)[0] == pytest.approx(
            kruskal_wallis(cubed)[0], abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kruskal_wallis({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            kruskal_wallis({"a": [1.0], "b": []})


class TestDunn:
    def test_identical_groups(self):
        rows = dunn_pairwise({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        assert rows[0][1] == 0.0
        assert rows[0][2] == 1.0

    @pytest.mark.parametrize("idx", range(len(DATASETS)))
    def test_matches_reference(self, idx):
        groups = DATASETS[idx]
        for mine, ref in zip(dunn_pairwise(groups), reference_dunn(groups)):
            assert mine[0] == ref[0]
            assert mine[1] == pytest.approx(ref[1], abs=1e-10)
            assert mine[2] == pytest.approx(ref[2], abs=1e-10)

    def test_antisymmetry(self):
        forward = dunn_pairwise({"a": [1.0, 2.0], "b": [5.0, 6.0]})
        backward = dunn_pairwise({"b": [5.0, 6.0], "a": [1.0, 2.0]})
        assert forward[0][1] == pytest.approx(-backward[0][1], abs=1e-12)


class TestHolm:
    def test_hand_computed(self):
        assert holm_adjust([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.04, 0.04])

    def test_single_p_unchanged(self):
        assert holm_adjust([0.3]) == [0.3]

    def test_all_ones(self):
        assert holm_adjust([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            holm_adjust([0.5, 1.2])
        with pytest.raises(ValueError):
            holm_adjust([0.01, float("nan"), 0.2])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, raw):
        adjusted = holm_adjust(raw)
        assert all(a >= p for a, p in zip(adjusted, raw))
        assert all(a <= 1.0 for a in adjusted)
        # monotone in the sorted order of raw p-values
        order = sorted(range(len(raw)), key=lambda i: raw[i])
        in_order = [adjusted[i] for i in order]
        assert in_order == sorted(in_order)


class TestCompare:
    def test_separated_groups(self, rng):
        groups = {"low": (1.0 + 0.01 * rng.standard_normal(30)).tolist(),
                  "high": (100.0 + 0.01 * rng.standard_normal(30)).tolist()}
        report = compare(groups)
        assert report.best_group == "low"
        assert report.similar_to_best == {"low"}

    def test_duplicate_groups_both_similar(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        report = compare({"a": values, "b": list(values)})
        assert report.similar_to_best == {"a", "b"}

    def test_omnibus_gate(self, rng):
        # overlapping noisy groups: omnibus non-significant, everyone similar
        groups = {k: rng.standard_normal(5).tolist() for k in ("a", "b", "c")}
        report = compare(groups)
        if report.kw_p >= 0.05:
            assert report.similar_to_best == {"a", "b", "c"}

    def test_means_and_stds(self):
        report = compare({"a": [1.0, 3.0], "b": [10.0, 10.0]})
        assert report.means["a"] == 2.0
        assert report.stds["a"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert report.stds["b"] == 0.0

    @pytest.mark.parametrize("groups", [{"only": [4.0, 2.0, 9.0]},
                                        {"a": [5.0], "b": [1.0]}])
    def test_no_omnibus_test_means_no_evidence(self, groups):
        # one group, or fewer than three observations in all
        report = compare(groups)
        assert (report.kw_statistic, report.kw_p) == (0.0, 1.0)
        assert report.best_group == min(groups, key=lambda n: np.mean(groups[n]))
        assert report.similar_to_best == set(groups)

    def test_infinite_values_have_infinite_std(self):
        inf = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare({"a": [inf, inf], "b": [1.0, 2.0]})
        assert report.stds["a"] == inf and report.means["a"] == inf
        assert report.best_group == "b"

    @pytest.mark.parametrize("values, mean, std", [
        ([1e308, 1.7e308], 1.35e308, 0.7e308 / math.sqrt(2.0)),   # the sum overflows
        ([1e155, 3e155, 2e155], 2e155, 1e155),                     # the squares overflow
    ])
    def test_finite_values_have_a_finite_mean_and_std(self, values, mean, std):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare({"a": values, "b": [1.0, 2.0]})
        assert report.means["a"] == pytest.approx(mean, rel=1e-15)
        assert report.stds["a"] == pytest.approx(std, rel=1e-15)
        assert report.best_group == "b"
        # a group holding +inf still has mean and std +inf
        report = compare({"a": values + [math.inf], "b": [1.0, 2.0]})
        assert report.means["a"] == math.inf and report.stds["a"] == math.inf

    def test_equal_means_go_to_the_lower_mean_rank(self):
        inf = math.inf
        assert compare({"a": [inf, 1.0], "b": [inf, 2.0]}).best_group == "a"
        assert compare({"a": [inf, 2.0], "b": [inf, 1.0]}).best_group == "b"

    def test_rejects_no_groups_and_empty_groups(self):
        with pytest.raises(ValueError):
            compare({})
        with pytest.raises(ValueError):
            compare({"a": [1.0], "b": []})

    def test_rejects_a_nan_naming_its_group(self):
        # a NaN mean would let the best-group min keep an arbitrary group
        with pytest.raises(ValueError, match="group 'fa' holds a NaN"):
            compare({"fa": [1.0, math.nan], "ga": [3.0, 4.0]})
        with pytest.raises(ValueError, match="group 'ga' holds a NaN"):
            kruskal_wallis({"fa": [1.0, 2.0], "ga": [math.nan, 4.0]})
        # +inf is a value, ranked last
        assert compare({"fa": [1.0, math.inf], "ga": [3.0, 4.0]}).best_group == "ga"

    def test_rejects_both_infinities_in_a_group_naming_it(self):
        # their mean is NaN, which would let the best-group min keep either
        # group, by the dict's order
        inf = math.inf
        for groups in ({"a": [inf, -inf, 0.0], "b": [1.0, 2.0, 3.0]},
                       {"b": [1.0, 2.0, 3.0], "a": [inf, -inf, 0.0]}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="group 'a' holds both \\+inf and -inf"):
                    compare(groups)
        # the rank tests still rank both infinities
        assert kruskal_wallis({"a": [inf, -inf, 0.0], "b": [1.0, 2.0, 3.0]})[0] >= 0.0
        assert len(dunn_pairwise({"a": [inf, -inf, 0.0], "b": [1.0, 2.0, 3.0]})) == 1

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_a_group_of_one_infinity_ranks(self, inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare({"a": [inf, inf, 0.0], "b": [1.0, 2.0, 3.0]})
        assert report.means["a"] == inf and report.stds["a"] == math.inf
        assert report.best_group == ("a" if inf < 0 else "b")


def _random_group_sets(count, seed):
    """Seeded group sets: tie-heavy integers, values with +inf, continuous
    values, one-value groups and single groups among them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 9))
        kind = int(rng.integers(0, 3))
        groups = {}
        for g in range(k):
            size = 1 if rng.random() < 0.2 else int(rng.integers(2, 16))
            if kind == 0:
                values = rng.integers(0, 4, size).astype(float)
            elif kind == 1:
                values = np.where(rng.random(size) < 0.3, math.inf,
                                  rng.integers(0, 20, size) * (1.0 + g))
            else:
                values = rng.lognormal(0.4 * g, 1.0, size)
            groups[f"algo{g}"] = values.tolist()
        yield groups


def _compare_in_full(groups):
    """`compare`'s classification taken the long way: the public tests on
    all pairs, Dunn filtered to the pairs holding the best group, then Holm."""
    from scipy.stats import rankdata
    means = {n: float(np.mean(np.asarray(v, dtype=float))) for n, v in groups.items()}
    ranks = rankdata(np.concatenate([np.asarray(v, dtype=float) for v in groups.values()]))
    mean_rank, start = {}, 0
    for name, values in groups.items():
        mean_rank[name] = float(np.mean(ranks[start:start + len(values)]))
        start += len(values)
    best = min(means, key=lambda n: (means[n], mean_rank[n]))
    h, p = 0.0, 1.0
    if len(groups) >= 2 and len(ranks) >= 3:
        h, p = kruskal_wallis(groups)
    similar = set(groups)
    if p < 0.05:
        rows = [row for row in dunn_pairwise(groups) if best in row[0]]
        adjusted = holm_adjust([row[2] for row in rows])
        similar = {best} | {a if b == best else b
                            for ((a, b), _, _), adj in zip(rows, adjusted) if adj >= 0.05}
    return h, p, best, similar


def test_compare_equals_all_pairs_filtered_to_the_best():
    kinds = Counter()
    for groups in _random_group_sets(2400, seed=2025):
        report = compare(groups)
        h, p, best, similar = _compare_in_full(groups)
        assert report.kw_statistic == h and report.kw_p == p
        assert report.best_group == best and report.similar_to_best == similar
        kinds["significant"] += p < 0.05
        kinds["single group"] += len(groups) == 1
        kinds["one-value group"] += any(len(v) == 1 for v in groups.values())
        kinds["inf"] += any(math.isinf(x) for v in groups.values() for x in v)
    assert min(kinds.values()) >= 100, kinds


def test_compare_ranks_once(monkeypatch):
    calls = []

    def counted(groups, least):
        calls.append(least)
        return _rank(groups, least)

    monkeypatch.setattr(stats, "_rank", counted)
    groups = {"low": [1.0, 2.0, 3.0, 4.0], "mid": [5.0, 6.0, 7.0, 8.0],
              "high": [9.0, 10.0, 11.0, 12.0]}
    report = compare(groups)
    assert report.kw_p < 0.05 and report.similar_to_best == {"low", "mid"}
    assert calls == [1]
