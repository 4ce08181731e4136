"""Distance measures feeding the attractiveness computation.  `mixed_eh` and
`gower` take solutions; `CODE_DISTANCES` holds each measure as a kernel on the
continuous difference ``d = y.cont - x.cont`` and the number of differing
discrete components, which both the public measures and the firefly engine
call, and `float_distance` gives the same kernel on two lists of floats.

Every sum over the components, the squares under a Euclidean norm and
Gower's continuous terms, is taken left to right: ((v0 + v1) + v2) + ...,
and 0.0 for no component.  `total` computes it on an array as
``np.add.accumulate(v)[-1]`` and `total_floats` on floats as an explicit
``s += x`` loop, so the two forms give the same double.  Built-in `sum`
compensates its rounding in Python 3.12, `np.add.reduce` keeps eight running
sums from eight components on, and a BLAS dot product picks its order by
the CPU, so none of them is used.  A distance is then one double on every
CPU, BLAS kernel and SIMD level."""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .core import MixedSolution, SearchSpace


class DistanceKind(Enum):
    """The distance a famv run uses for its attractiveness: `mixed_eh` or
    `gower`."""

    MIXED_EH = "mixed-eh"
    GOWER = "gower"


def total(v: np.ndarray) -> float:
    """The left-to-right sum of a float64 vector; 0.0 when it is empty."""
    return float(np.add.accumulate(v)[-1]) if len(v) else 0.0


def total_floats(xs) -> float:
    """`total` of an iterable of floats: the same double for the same
    non-negative terms, the only kind a distance sums (an all -0.0 vector
    sums to -0.0 in `total` and to 0.0 here)."""
    s = 0.0
    for x in xs:
        s += x
    return s


def norm(d: np.ndarray) -> float:
    """||d||: the square root of the left-to-right sum of the squares."""
    return math.sqrt(total(d * d))


def norm_floats(xi: list, xj: list) -> float:
    """`norm` of ``xj - xi`` for two lists of floats: the same double."""
    s = 0.0
    for p, q in zip(xi, xj):
        d = q - p
        s += d * d
    return math.sqrt(s)


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """The Euclidean distance between two equally long real vectors."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return norm(np.asarray(b, dtype=float) - np.asarray(a, dtype=float))


def hamming(a: Sequence, b: Sequence) -> int:
    """Number of positions where the discrete vectors disagree."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def _mixed_eh(space: SearchSpace, d: np.ndarray, mismatches: int) -> float:
    return (norm(d) + mismatches) / space.dim


def _gower(space: SearchSpace, d: np.ndarray, mismatches: int) -> float:
    return (total(np.abs(d) / space.cont_range) + mismatches) / space.dim


CODE_DISTANCES = {DistanceKind.MIXED_EH: _mixed_eh, DistanceKind.GOWER: _gower}


def float_distance(kind: DistanceKind, space: SearchSpace):
    """``CODE_DISTANCES[kind]`` bound to ``space``, as a kernel of two lists
    ``xi``, ``xj`` of floats and a mismatch count: the same double as the
    kernel of ``d = xj - xi``."""
    dim = space.dim
    if kind is DistanceKind.MIXED_EH:
        return lambda xi, xj, mismatches: (norm_floats(xi, xj) + mismatches) / dim
    spans = space.cont_range.tolist()
    return lambda xi, xj, mismatches: (
        total_floats([abs(q - p) / w for p, q, w in zip(xi, xj, spans)]) + mismatches) / dim


def mixed_eh(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> float:
    """Euclidean over the continuous part plus Hamming over the discrete
    part, averaged over the total dimension count."""
    _check(space, x, y)
    return _mixed_eh(space, y.cont - x.cont, hamming(x.disc, y.disc))


def gower(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> float:
    """Per-dimension normalized dissimilarity averaged over all dimensions.

    Continuous dimensions contribute |x - y| / range, discrete ones a 0/1
    mismatch indicator, so the result lies in [0, 1].
    """
    _check(space, x, y)
    return _gower(space, y.cont - x.cont, hamming(x.disc, y.disc))


def _check(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> None:
    for sol in (x, y):
        if len(sol.cont) != space.n_c or len(sol.disc) != space.n_d:
            raise ValueError("solution does not conform to the search space")
