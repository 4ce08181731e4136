"""Nonparametric comparison pipeline: Kruskal-Wallis omnibus test, Dunn
pairwise post-hoc z tests, Holm step-down correction, and the best /
statistically-similar classification used in the result tables.

Tail probabilities are computed in-module: the chi-square survival function
via the regularized incomplete gamma function (series / continued fraction,
Numerical Recipes style) and the normal tail via erfc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

SampleSet = Mapping[str, Sequence[float]]

SIGNIFICANCE_LEVEL = 0.05


def _upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if a <= 0 or x < 0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # series expansion of P(a, x)
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - p
    # Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom."""
    return _upper_gamma(df / 2.0, x / 2.0)


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


def _validate(groups: SampleSet) -> None:
    if len(groups) < 2:
        raise ValueError("need at least two groups")
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
    if any(p < 0 or p > 1 for p in raw_p):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(raw_p)
    order = sorted(range(m), key=lambda i: raw_p[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * raw_p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


@dataclass
class PairwiseRow:
    pair: tuple[str, str]
    z: float
    raw_p: float
    adjusted_p: float
    significant: bool


@dataclass
class ComparisonReport:
    kw_statistic: float
    kw_p: float
    pairwise: list[PairwiseRow]        # all pairs, Holm over the full family
    means: dict[str, float]
    stds: dict[str, float]
    best_group: str
    similar_to_best: set[str]


def compare(groups: SampleSet, level: float = SIGNIFICANCE_LEVEL) -> ComparisonReport:
    """Full pipeline: omnibus gate, post-hoc pairs, Holm, classification.

    The best group has the lowest mean; the similar set is the best plus
    every group whose Holm-adjusted comparison against the best (adjusted
    within the best-vs-others family) is non-significant.  If the omnibus
    test is non-significant, no group is distinguishable from the best.
    """
    _validate(groups)
    means = {n: float(np.mean(np.asarray(v, dtype=float))) for n, v in groups.items()}
    stds = {n: float(np.std(np.asarray(v, dtype=float), ddof=1)) if len(v) > 1 else 0.0
            for n, v in groups.items()}
    best = min(means, key=lambda n: means[n])
    h, p = kruskal_wallis(groups)

    raw = dunn_pairwise(groups)
    all_adjusted = holm_adjust([row[2] for row in raw])
    pairwise = [PairwiseRow(pair, z, raw_p, adj, adj < level)
                for (pair, z, raw_p), adj in zip(raw, all_adjusted)]

    similar = set(groups)
    if p < level:
        best_rows = [row for row in raw if best in row[0]]
        best_adjusted = holm_adjust([row[2] for row in best_rows])
        similar = {best}
        for (pair, _, _), adj in zip(best_rows, best_adjusted):
            other = pair[0] if pair[1] == best else pair[1]
            if adj >= level:
                similar.add(other)

    return ComparisonReport(h, p, pairwise, means, stds, best, similar)
