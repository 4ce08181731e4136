"""Nonparametric comparison pipeline: Kruskal-Wallis omnibus test, Dunn
pairwise post-hoc z tests, Holm step-down correction, and the best /
statistically-similar classification used in the result tables.

Tail probabilities are computed in-module and in closed form: the
chi-square survival function as a finite sum for integer degrees of
freedom, and the normal tail via erfc.

One checked ranking pass over the pooled sample feeds both tests.
`compare`, the one place a problem's cells are classified, ranks them once
and runs Dunn's test only between the best group and each other group,
the only pairs the classification reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

SampleSet = Mapping[str, Sequence[float]]

SIGNIFICANCE_LEVEL = 0.05


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with a positive integer df, the
    only kind Kruskal-Wallis has.  With y = x/2 the tail is a finite sum:
    sum_{i<m} e^-y y^i / i! for df = 2m, and
    erfc(sqrt y) + sum_{i<m} e^-y y^(i+1/2) / Gamma(i+3/2) for df = 2m+1.
    The tail is 1 at x = 0 and 0 at x = +inf, where the sum would be NaN."""
    if not x >= 0 or df < 1 or df != int(df):
        raise ValueError(f"need x >= 0 and an integer df >= 1, got x={x}, df={df}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = x / 2.0
    m, odd = divmod(int(df), 2)
    a = 0.5 * odd
    head = math.erfc(math.sqrt(y)) if odd else 0.0
    # rounding can put the sum of positive terms a few ulps above 1
    return min(1.0, head + sum(math.exp((i + a) * math.log(y) - y - math.lgamma(i + a + 1.0))
                               for i in range(m)))


def norm_sf_two_sided(z: float) -> float:
    """Two-sided standard-normal p-value for an observed z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


# a group's mid-ranks, a group's mean rank, the tie term, the pooled n
_Ranking = tuple[dict[str, np.ndarray], dict[str, float], float, int]


def _rank(groups: SampleSet, least: int) -> _Ranking:
    """Check that there are ``least`` or more groups and none is empty or
    holds a NaN (+inf is a value), then rank the pooled sample once: each
    group's mid-ranks, each group's mean rank, the tie term sum(t^3 - t) and
    the pooled n."""
    if len(groups) < least:
        raise ValueError(f"need {least} or more groups, got {len(groups)}")
    arrays = [np.asarray(v, dtype=float) for v in groups.values()]
    for name, values in zip(groups, arrays):
        if len(values) == 0 or np.isnan(values).any():
            raise ValueError(f"group {name!r} {'holds a NaN' if len(values) else 'is empty'}")
    pooled = np.concatenate(arrays)
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    ends = np.cumsum([len(v) for v in groups.values()])
    by_group = dict(zip(groups, np.split(ranks, ends[:-1])))
    mean_rank = {name: float(np.mean(r)) for name, r in by_group.items()}
    return by_group, mean_rank, float(np.sum(counts ** 3 - counts)), len(pooled)


def _h_test(ranking: _Ranking) -> tuple[float, float]:
    """Tie-corrected H and its p-value from a `_rank` result."""
    ranks, mean_rank, tie_term, n = ranking
    correction = 1.0 - tie_term / (n ** 3 - n)
    if correction <= 0.0:
        return 0.0, 1.0  # every value identical
    h = (12.0 / (n * (n + 1))
         * sum(len(r) * mean_rank[name] ** 2 for name, r in ranks.items())
         - 3.0 * (n + 1))
    h /= correction
    return h, chi2_sf(h, len(ranks) - 1)


def _dunn(ranking: _Ranking, pairs: Iterable[tuple[str, str]]
          ) -> list[tuple[tuple[str, str], float, float]]:
    """Dunn z and raw two-sided p for each (a, b) in ``pairs``, from a `_rank`
    result."""
    ranks, mean_rank, tie_term, n = ranking
    variance_base = n * (n + 1) / 12.0 - tie_term / (12.0 * (n - 1))
    rows = []
    for a, b in pairs:
        sigma = math.sqrt(variance_base * (1.0 / len(ranks[a]) + 1.0 / len(ranks[b])))
        z = 0.0 if sigma == 0.0 else (mean_rank[a] - mean_rank[b]) / sigma
        rows.append(((a, b), z, norm_sf_two_sided(z)))
    return rows


def kruskal_wallis(groups: SampleSet) -> tuple[float, float]:
    """Tie-corrected H statistic and its chi-square p-value."""
    ranking = _rank(groups, least=2)
    if ranking[3] < 3:
        raise ValueError("need at least three observations in total")
    return _h_test(ranking)


def dunn_pairwise(groups: SampleSet) -> list[tuple[tuple[str, str], float, float]]:
    """Dunn z statistics and raw two-sided p-values for every group pair."""
    return _dunn(_rank(groups, least=2), combinations(groups, 2))


def holm_adjust(raw_p: Sequence[float]) -> list[float]:
    """Step-down family-wise correction, returned in the input order."""
    if not all(0.0 <= p <= 1.0 for p in raw_p):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(raw_p)
    order = sorted(range(m), key=lambda i: raw_p[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * raw_p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def _moments(values: np.ndarray) -> tuple[float, float]:
    """The mean and the sample std (0 for one value) of a group's values.
    A group holding an infinite value has std +inf (numpy would give NaN
    and warn).  Where a finite group's sum or squares pass the largest
    double, both are taken again on the values scaled by a power of two,
    which puts the largest below 1, and scaled back: the group's finite
    mean and std.  Every other group keeps numpy's bits."""
    def plain(v):
        return float(np.mean(v)), float(np.std(v, ddof=1)) if len(v) > 1 else 0.0

    with np.errstate(over="ignore"):
        if np.isinf(values).any():
            return float(np.mean(values)), math.inf
        mean, std = plain(values)
        if math.isfinite(mean) and math.isfinite(std):
            return mean, std
        exponent = math.frexp(float(np.max(np.abs(values))))[1]
        mean, std = plain(np.ldexp(values, -exponent))
        return float(np.ldexp(mean, exponent)), float(np.ldexp(std, exponent))


@dataclass
class ComparisonReport:
    kw_statistic: float
    kw_p: float
    means: dict[str, float]
    stds: dict[str, float]
    best_group: str
    similar_to_best: set[str]


def compare(groups: SampleSet) -> ComparisonReport:
    """Rank one problem's groups: omnibus gate, post-hoc pairs, Holm,
    classification.

    Tests are significant below ``SIGNIFICANCE_LEVEL``.  The best group has
    the lowest mean, and among equal means (two +inf means, say) the lowest
    mean pooled rank, the ranks Kruskal-Wallis uses.
    A group that holds an infinite value has std +inf, and a group of
    finite values a finite mean and std.  A group holding both +inf and
    -inf, whose mean would be NaN, is a ValueError naming it, as a NaN is.
    The similar set is the best plus every group whose Holm-adjusted
    comparison against the best (adjusted within the best-vs-others family)
    is non-significant.
    If the omnibus test is non-significant, no group is distinguishable
    from the best.  With one group, or fewer than three observations in
    all, the omnibus test cannot run; the report then gives no evidence,
    H = 0 and p = 1.
    """
    ranking = _rank(groups, least=1)
    mean_rank, n = ranking[1], ranking[3]
    values = {name: np.asarray(v, dtype=float) for name, v in groups.items()}
    for name, v in values.items():
        if np.isposinf(v).any() and np.isneginf(v).any():
            raise ValueError(f"group {name!r} holds both +inf and -inf")
    moments = {name: _moments(v) for name, v in values.items()}
    means = {name: mean for name, (mean, _) in moments.items()}
    stds = {name: std for name, (_, std) in moments.items()}
    best = min(means, key=lambda name: (means[name], mean_rank[name]))
    h, p = _h_test(ranking) if len(groups) >= 2 and n >= 3 else (0.0, 1.0)

    similar = set(groups)
    if p < SIGNIFICANCE_LEVEL:
        # |z| and p do not depend on a pair's order, nor Holm on the rows' order
        rows = _dunn(ranking, [(best, other) for other in groups if other != best])
        adjusted = holm_adjust([row[2] for row in rows])
        similar = {best} | {pair[1] for (pair, _, _), adj in zip(rows, adjusted)
                            if adj >= SIGNIFICANCE_LEVEL}

    return ComparisonReport(h, p, means, stds, best, similar)
