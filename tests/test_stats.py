from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _stat_reference import DATASETS, reference_dunn, reference_kruskal
from famv import compare, dunn_pairwise, holm_adjust, kruskal_wallis
from famv.stats import _pooled_midranks, chi2_sf, norm_sf_two_sided


class TestTailFunctions:
    @pytest.mark.parametrize("df", range(1, 41))
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, 2.0, 7.3, 25.0, 100.0, 400.0, 1e5])
    def test_chi2_against_scipy(self, x, df):
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
    ranks, tie_term = _pooled_midranks(groups)
    pooled = np.concatenate(list(groups.values()))
    assert np.concatenate(list(ranks.values())).tolist() == rankdata(pooled).tolist()
    assert tie_term == sum(t ** 3 - t for t in Counter(pooled.tolist()).values())


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

    def test_rejects_no_groups_and_empty_groups(self):
        with pytest.raises(ValueError):
            compare({})
        with pytest.raises(ValueError):
            compare({"a": [1.0], "b": []})
