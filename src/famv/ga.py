"""Binary-encoded genetic algorithm baseline.

All variable types share one bit-string chromosome: continuous dimensions get
a fixed-width segment mapped linearly onto their interval, integer and
categorical dimensions get ceil(log2(size)) bits mapped with a modulo (which
keeps every bit pattern feasible at the price of a slight non-uniformity for
non-power-of-two sizes).

Children never depend on each other's fitness, so the population is one
``(pop, L)`` int8 bit matrix and each generation does its operator work in
one batch: one draw for every tournament, one for the crossover flags and
one for the cuts, one mutation mask, and one decode of all children by a
per-segment sum of bit place values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveFunction, Recorder, RunTrace, SearchSpace, check_integer, check_real


@dataclass(frozen=True)
class GaConfig:
    """Settings of one `run_ga` run.

    Defaults: population 100, crossover probability 0.9, per-bit mutation
    probability 0.01, tournaments of 3, one elite and 16 bits per
    continuous dimension.

    Every setting is checked here, by name.  The integer settings
    (``max_fe`` >= 1, ``seed`` >= 0, ``pop_size`` >= 2 and even for pairing,
    ``tournament_size`` >= 1, ``elitism_count`` in [0, ``pop_size``] and
    ``bits_per_continuous`` in [1, 63], so that a segment's place values fit
    an int64) take any integer, numpy's included: a float, a string, None or
    a bool is a TypeError and a value out of range a ValueError that gives
    the value.  ``p_crossover`` and ``p_mutation`` take any real number in
    [0, 1], ints and numpy floats included: a string, None, a complex number
    or a bool is a TypeError and a value outside [0, 1], NaN included, a
    ValueError.
    """

    max_fe: int
    seed: int = 0
    pop_size: int = 100
    p_crossover: float = 0.9
    p_mutation: float = 0.01
    tournament_size: int = 3
    elitism_count: int = 1
    bits_per_continuous: int = 16

    def __post_init__(self):
        for name, least in (("max_fe", 1), ("seed", 0), ("pop_size", 2), ("tournament_size", 1),
                            ("elitism_count", 0), ("bits_per_continuous", 1)):
            check_integer(name, getattr(self, name), least)
        if self.pop_size % 2 != 0:
            raise ValueError(f"pop_size must be even for pairing, got {self.pop_size}")
        for name in ("p_crossover", "p_mutation"):
            value = check_real(name, getattr(self, name))
            if not 0 <= value <= 1:   # false for NaN too
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.elitism_count > self.pop_size:
            raise ValueError(f"elitism_count must be <= pop_size ({self.pop_size}), "
                             f"got {self.elitism_count}")
        # a segment's place values must fit an int64
        if self.bits_per_continuous > 63:
            raise ValueError("bits_per_continuous must lie in [1, 63], "
                             f"got {self.bits_per_continuous}")


class ChromosomeLayout:
    """Per-dimension bit segments derived solely from the search space.

    ``place[b]`` is bit ``b``'s place value inside its segment (most
    significant bit first), so summing ``bits * place`` from each of
    ``starts`` gives every segment's unsigned integer at once.
    """

    def __init__(self, space: SearchSpace, bits_per_continuous: int):
        self.space = space
        widths = np.full(space.dim, bits_per_continuous)
        widths[space.disc_pos] = [max(1, (n - 1).bit_length()) for n in space.disc_sizes.tolist()]
        self.starts = np.cumsum(widths) - widths
        self.length = int(widths.sum())
        # bit b of a segment that ends before bit e has place value 2 ** (e - b - 1)
        self.place = 2 ** (np.repeat(self.starts + widths, widths) - np.arange(self.length) - 1)
        self.cont_levels = 2.0 ** widths[space.cont_pos] - 1


def decode(layout: ChromosomeLayout, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an ``(n, L)`` chromosome matrix to its ``(n, n_c)`` continuous
    values and ``(n, n_d)`` codes: continuous segments linearly onto their
    interval, discrete ones modulo their size."""
    if bits.ndim != 2 or bits.shape[1] != layout.length:
        raise ValueError(f"chromosome shape {bits.shape} != (n, {layout.length})")
    space = layout.space
    raw = np.add.reduceat(bits * layout.place, layout.starts, axis=1)
    cont = space.cont_lo + raw[:, space.cont_pos] / layout.cont_levels * space.cont_range
    codes = space.disc_lo + raw[:, space.disc_pos] % space.disc_sizes
    return cont, codes


def one_point_crossover(a: np.ndarray, b: np.ndarray,
                        cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Swap the suffixes of each row pair of the bit matrices ``a`` and
    ``b`` from its cut in {1 .. L}; a cut of L swaps nothing.  A bit is
    swapped by xor with ``a ^ b``, masked to the suffix."""
    if a.shape != b.shape:
        raise ValueError("chromosome lengths differ")
    if a.shape[1] < 2:
        raise ValueError("chromosomes need at least two bits")
    swap = (a ^ b) & (np.arange(a.shape[1]) >= cuts[:, None])
    return a ^ swap, b ^ swap


def _tournament(fitness: np.ndarray, rng: np.random.Generator, n: int,
                size: int) -> np.ndarray:
    """Indices of ``n`` tournament winners, each the first of ``size``
    uniform picks (with replacement) with the lowest fitness."""
    picks = rng.integers(len(fitness), size=(n, size))
    return picks[np.arange(n), np.argmin(fitness[picks], axis=1)]


def run_ga(problem: ObjectiveFunction, config: GaConfig) -> RunTrace:
    """Generational GA with elitism under a function-evaluation budget.

    Children never depend on each other's fitness, so each generation draws
    its tournaments, crossovers and mutations as whole matrices and is
    evaluated in one `Recorder.evaluate_rows` call.  A generation breeds only
    the children the budget has room for; it still draws the full
    tournament and crossover arrays, and its mutation doubles are a prefix
    of the full draw, so every random stream is that of a full generation.
    """
    layout = ChromosomeLayout(problem.space, config.bits_per_continuous)
    rng = np.random.default_rng(config.seed)
    rec = Recorder(problem, config.max_fe)
    budget = rec.budget

    genomes = rng.integers(0, 2, size=(min(config.pop_size, config.max_fe), layout.length),
                           dtype=np.int8)
    fitness = rec.evaluate_rows(*decode(layout, genomes))
    if config.elitism_count >= config.pop_size:
        return rec.build()  # fully elitist: nothing evolves

    n_child = config.pop_size - config.elitism_count
    pairs = (n_child + 1) // 2
    while not budget.exhausted:
        n = min(n_child, budget.max_fe - budget.consumed)
        m = (n + 1) // 2   # the pairs whose children are evaluated
        elite = np.argsort(fitness, kind="stable")[:config.elitism_count]
        parents = genomes[_tournament(fitness, rng, 2 * pairs, config.tournament_size)[:2 * m]]
        pa, pb = parents[0::2], parents[1::2]
        # a one-bit chromosome has no cut point: its children are copies
        if layout.length > 1:
            crossed = rng.random(pairs)[:m] < config.p_crossover
            cuts = rng.integers(1, layout.length, size=pairs)[:m]
            pa, pb = one_point_crossover(pa, pb, np.where(crossed, cuts, layout.length))
        children = np.stack((pa, pb), axis=1).reshape(2 * m, layout.length)[:n]
        if config.p_mutation > 0:
            children ^= rng.random((n, layout.length)) < config.p_mutation
        genomes = np.concatenate((genomes[elite], children))
        fitness = np.concatenate((fitness[elite], rec.evaluate_rows(*decode(layout, children))))

    return rec.build()
