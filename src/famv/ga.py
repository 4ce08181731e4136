"""Binary-encoded genetic algorithm baseline.

All variable types share one bit-string chromosome: continuous dimensions get
a fixed-width segment mapped linearly onto their interval, integer and
categorical dimensions get ceil(log2(size)) bits mapped with a modulo (which
keeps every bit pattern feasible at the price of a slight non-uniformity for
non-power-of-two sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EvaluationBudget, MixedSolution, ObjectiveFunction, Recorder,
                   RunTrace, SearchSpace)


@dataclass(frozen=True)
class GaConfig:
    max_fe: int
    seed: int = 0
    pop_size: int = 100
    p_crossover: float = 0.9
    p_mutation: float = 0.01
    tournament_size: int = 3
    elitism_count: int = 1
    bits_per_continuous: int = 16

    def __post_init__(self):
        if self.pop_size % 2 != 0:
            raise ValueError("pop_size must be even for pairing")
        if not (0 <= self.p_crossover <= 1 and 0 <= self.p_mutation <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.elitism_count < 0 or self.elitism_count > self.pop_size:
            raise ValueError("elitism_count out of range")


class ChromosomeLayout:
    """Per-dimension bit segments derived solely from the search space.

    ``place[b]`` is bit ``b``'s place value inside its segment (most
    significant bit first), so summing ``bits * place`` from each of
    ``starts`` gives every segment's unsigned integer at once.
    """

    def __init__(self, space: SearchSpace, bits_per_continuous: int = 16):
        self.space = space
        self.disc_sizes = space.disc_hi - space.disc_lo + 1
        widths = np.full(space.dim, bits_per_continuous)
        widths[space.disc_pos] = [max(1, math.ceil(math.log2(n))) for n in self.disc_sizes.tolist()]
        self.starts = np.cumsum(widths) - widths
        self.length = int(widths.sum())
        self.segments = list(zip(space.dims, self.starts.tolist(), widths.tolist()))
        self.place = np.concatenate([2 ** np.arange(w - 1, -1, -1) for w in widths.tolist()])
        self.cont_levels = 2.0 ** widths[space.cont_pos] - 1


def decode(layout: ChromosomeLayout, bits: np.ndarray) -> MixedSolution:
    """Map a chromosome to a feasible mixed solution: continuous segments
    linearly onto their interval, discrete ones modulo their size."""
    if len(bits) != layout.length:
        raise ValueError(f"chromosome length {len(bits)} != layout length {layout.length}")
    space = layout.space
    raw = np.add.reduceat(bits * layout.place, layout.starts)
    cont = space.cont_lo + raw[space.cont_pos] / layout.cont_levels * space.cont_range
    codes = space.disc_lo + raw[space.disc_pos] % layout.disc_sizes
    return MixedSolution(cont, space.decode(codes))


def one_point_crossover(a: np.ndarray, b: np.ndarray,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Swap suffixes at a uniform cut point in {1 .. L-1}."""
    if len(a) != len(b):
        raise ValueError("chromosome lengths differ")
    if len(a) < 2:
        raise ValueError("chromosomes need at least two bits")
    cut = int(rng.integers(1, len(a)))
    child_a = np.concatenate([a[:cut], b[cut:]])
    child_b = np.concatenate([b[:cut], a[cut:]])
    return child_a, child_b


def _tournament_index(fitnesses: list[float], rng: np.random.Generator,
                      size: int) -> int:
    picks = rng.integers(len(fitnesses), size=size)
    return min(picks, key=lambda i: fitnesses[i])


def _mutate(bits: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    if p <= 0:
        return bits
    flips = rng.random(len(bits)) < p
    return np.where(flips, 1 - bits, bits)


def run_ga(problem: ObjectiveFunction, config: GaConfig) -> RunTrace:
    """Generational GA with elitism under a function-evaluation budget."""
    space = problem.space
    layout = ChromosomeLayout(space, config.bits_per_continuous)
    rng = np.random.default_rng(config.seed)
    budget = EvaluationBudget(config.max_fe)
    rec = Recorder(problem, budget)

    genomes: list[np.ndarray] = []
    fitnesses: list[float] = []
    for _ in range(config.pop_size):
        if not budget.consume():
            break
        bits = rng.integers(0, 2, size=layout.length, dtype=np.int8)
        genomes.append(bits)
        fitnesses.append(rec.evaluate(decode(layout, bits)))
    if not genomes:
        raise ValueError("budget too small to evaluate any individual")

    if config.elitism_count >= config.pop_size:
        return rec.build(config.seed, "ga")  # fully elitist: nothing evolves

    while not budget.exhausted:
        order = sorted(range(len(fitnesses)), key=fitnesses.__getitem__)
        elite_idx = order[:config.elitism_count]
        next_genomes = [genomes[i].copy() for i in elite_idx]
        next_fitnesses = [fitnesses[i] for i in elite_idx]

        while len(next_genomes) < config.pop_size:
            pa = genomes[_tournament_index(fitnesses, rng, config.tournament_size)]
            pb = genomes[_tournament_index(fitnesses, rng, config.tournament_size)]
            if rng.random() < config.p_crossover:
                ca, cb = one_point_crossover(pa, pb, rng)
            else:
                ca, cb = pa.copy(), pb.copy()
            for child in (ca, cb):
                if len(next_genomes) >= config.pop_size:
                    break
                child = _mutate(child, config.p_mutation, rng)
                if not budget.consume():
                    return rec.build(config.seed, "ga")
                next_genomes.append(child)
                next_fitnesses.append(rec.evaluate(decode(layout, child)))

        genomes, fitnesses = next_genomes, next_fitnesses

    return rec.build(config.seed, "ga")
