"""Nonparametric comparison pipeline: Kruskal-Wallis omnibus test, Dunn
pairwise post-hoc z tests, Holm step-down correction, and the best /
statistically-similar classification used in the result tables.

Tail probabilities are computed in-module and in closed form: the
chi-square survival function as a finite sum for integer degrees of
freedom, and the normal tail via erfc.  `compare` is the one place a
problem's cells are ranked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

SampleSet = Mapping[str, Sequence[float]]

SIGNIFICANCE_LEVEL = 0.05


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with a positive integer df, the
    only kind Kruskal-Wallis has.  With y = x/2 the tail is a finite sum:
    sum_{i<m} e^-y y^i / i! for df = 2m, and
    erfc(sqrt y) + sum_{i<m} e^-y y^(i+1/2) / Gamma(i+3/2) for df = 2m+1."""
    if not x >= 0 or df < 1 or df != int(df):
        raise ValueError(f"need x >= 0 and an integer df >= 1, got x={x}, df={df}")
    if x == 0.0:
        return 1.0
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


def _pooled_midranks(groups: SampleSet) -> tuple[dict[str, np.ndarray], float]:
    """Mid-ranks per group over the pooled sample plus the tie term
    sum(t^3 - t)."""
    names = list(groups)
    pooled = np.concatenate([np.asarray(groups[n], dtype=float) for n in names])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    tie_term = float(np.sum(counts ** 3 - counts))
    out = {}
    start = 0
    for n in names:
        size = len(groups[n])
        out[n] = ranks[start:start + size]
        start += size
    return out, tie_term


def _validate(groups: SampleSet, least: int = 2) -> None:
    if len(groups) < least:
        raise ValueError(f"need {least} or more groups, got {len(groups)}")
    for name, values in groups.items():
        if len(values) == 0:
            raise ValueError(f"group {name!r} is empty")


def kruskal_wallis(groups: SampleSet) -> tuple[float, float]:
    """Tie-corrected H statistic and its chi-square p-value."""
    _validate(groups)
    ranks, tie_term = _pooled_midranks(groups)
    n_total = sum(len(v) for v in groups.values())
    if n_total < 3:
        raise ValueError("need at least three observations in total")
    correction = 1.0 - tie_term / (n_total ** 3 - n_total)
    if correction <= 0.0:
        return 0.0, 1.0  # every value identical
    h = (12.0 / (n_total * (n_total + 1))
         * sum(len(r) * float(np.mean(r)) ** 2 for r in ranks.values())
         - 3.0 * (n_total + 1))
    h /= correction
    return h, chi2_sf(h, len(groups) - 1)


def dunn_pairwise(groups: SampleSet) -> list[tuple[tuple[str, str], float, float]]:
    """Dunn z statistics and raw two-sided p-values for every group pair."""
    _validate(groups)
    ranks, tie_term = _pooled_midranks(groups)
    n_total = sum(len(v) for v in groups.values())
    variance_base = (n_total * (n_total + 1) / 12.0
                     - tie_term / (12.0 * (n_total - 1)))
    results = []
    for a, b in combinations(groups, 2):
        na, nb = len(ranks[a]), len(ranks[b])
        sigma = math.sqrt(variance_base * (1.0 / na + 1.0 / nb))
        if sigma == 0.0:
            z = 0.0
        else:
            z = (float(np.mean(ranks[a])) - float(np.mean(ranks[b]))) / sigma
        results.append(((a, b), z, norm_sf_two_sided(z)))
    return results


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


def _std(values: np.ndarray) -> float:
    """+inf when any value is infinite (numpy would give NaN and warn),
    else the sample std, 0 for one value."""
    if np.isinf(values).any():
        return math.inf
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


@dataclass
class ComparisonReport:
    kw_statistic: float
    kw_p: float
    means: dict[str, float]
    stds: dict[str, float]
    best_group: str
    similar_to_best: set[str]


def compare(groups: SampleSet, level: float = SIGNIFICANCE_LEVEL) -> ComparisonReport:
    """Rank one problem's groups: omnibus gate, post-hoc pairs, Holm,
    classification.

    The best group has the lowest mean, and among equal means (two +inf
    means, say) the lowest mean pooled rank, the ranks Kruskal-Wallis uses.
    A group that holds an infinite value has std +inf.  The similar set is
    the best plus every group whose Holm-adjusted comparison against the
    best (adjusted within the best-vs-others family) is non-significant.
    If the omnibus test is non-significant, no group is distinguishable
    from the best.  With one group, or fewer than three observations in
    all, the omnibus test cannot run; the report then gives no evidence,
    H = 0 and p = 1.
    """
    _validate(groups, least=1)
    values = {n: np.asarray(v, dtype=float) for n, v in groups.items()}
    means = {n: float(np.mean(v)) for n, v in values.items()}
    stds = {n: _std(v) for n, v in values.items()}
    ranks, _ = _pooled_midranks(groups)
    best = min(means, key=lambda n: (means[n], float(np.mean(ranks[n]))))
    h, p = 0.0, 1.0
    if len(groups) >= 2 and sum(len(v) for v in groups.values()) >= 3:
        h, p = kruskal_wallis(groups)

    similar = set(groups)
    if p < level:
        best_rows = [row for row in dunn_pairwise(groups) if best in row[0]]
        best_adjusted = holm_adjust([row[2] for row in best_rows])
        similar = {best}
        for (pair, _, _), adj in zip(best_rows, best_adjusted):
            other = pair[0] if pair[1] == best else pair[1]
            if adj >= level:
                similar.add(other)

    return ComparisonReport(h, p, means, stds, best, similar)
