"""Distance measures feeding the attractiveness computation.  `mixed_eh` and
`gower` take solutions; `CODE_DISTANCES` holds each measure as a kernel on the
continuous difference ``d = y.cont - x.cont`` and the number of differing
discrete components, which both the public measures and the firefly engine
call."""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .core import MixedSolution, SearchSpace


class DistanceKind(Enum):
    MIXED_EH = "mixed-eh"
    GOWER = "gower"


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return math.sqrt(d.dot(d))


def hamming(a: Sequence, b: Sequence) -> int:
    """Number of positions where the discrete vectors disagree."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def _mixed_eh(space: SearchSpace, d: np.ndarray, mismatches: int) -> float:
    return (math.sqrt(d.dot(d)) + mismatches) / space.dim


def _gower(space: SearchSpace, d: np.ndarray, mismatches: int) -> float:
    return (float((np.abs(d) / space.cont_range).sum()) + mismatches) / space.dim


CODE_DISTANCES = {DistanceKind.MIXED_EH: _mixed_eh, DistanceKind.GOWER: _gower}


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
