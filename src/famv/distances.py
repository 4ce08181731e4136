"""Distance measures feeding the attractiveness computation.  `mixed_eh` and
`gower` take solutions; `CODE_DISTANCES` holds the same two measures as array
kernels on continuous and code vectors, which the firefly engine calls."""

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


def mixed_eh_codes(space: SearchSpace, x_cont: np.ndarray, x_codes: np.ndarray,
                   y_cont: np.ndarray, y_codes: np.ndarray) -> float:
    """`mixed_eh` on continuous vectors and code vectors."""
    d = y_cont - x_cont
    return (math.sqrt(d.dot(d)) + int(np.count_nonzero(x_codes != y_codes))) / space.dim


def gower_codes(space: SearchSpace, x_cont: np.ndarray, x_codes: np.ndarray,
                y_cont: np.ndarray, y_codes: np.ndarray) -> float:
    """`gower` on continuous vectors and code vectors."""
    total = float((np.abs(x_cont - y_cont) / space.cont_range).sum())
    return (total + int(np.count_nonzero(x_codes != y_codes))) / space.dim


CODE_DISTANCES = {DistanceKind.MIXED_EH: mixed_eh_codes, DistanceKind.GOWER: gower_codes}


def mixed_eh(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> float:
    """Euclidean over the continuous part plus Hamming over the discrete
    part, averaged over the total dimension count."""
    _check(space, x, y)
    return (euclidean(x.cont, y.cont) + hamming(x.disc, y.disc)) / space.dim


def gower(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> float:
    """Per-dimension normalized dissimilarity averaged over all dimensions.

    Continuous dimensions contribute |x - y| / range, discrete ones a 0/1
    mismatch indicator, so the result lies in [0, 1].
    """
    _check(space, x, y)
    total = float((np.abs(x.cont - y.cont) / space.cont_range).sum())
    return (total + hamming(x.disc, y.disc)) / space.dim


def _check(space: SearchSpace, x: MixedSolution, y: MixedSolution) -> None:
    for sol in (x, y):
        if len(sol.cont) != space.n_c or len(sol.disc) != space.n_d:
            raise ValueError("solution does not conform to the search space")
