"""The ``mixed-cat`` problem: continuous, integer and categorical dimensions.

No registry problem has a categorical dimension, so the benchmark defines
its own, written the way a user would write one: it is built from famv's
public space types and reads a solution only through ``MixedSolution.cont``
and ``MixedSolution.disc``.  Its optimum is 0 and every term is non-negative.
"""

from __future__ import annotations

import numpy as np

MATERIALS = ("steel", "aluminium", "titanium", "copper", "nickel", "brass")
CONT_BOUNDS = (-10.0, 10.0)
INT_BOUNDS = (0, 20)


class MixedCatProblem:
    """Separable sum of squared distances to a hidden target over the
    continuous and integer dimensions, plus a per-dimension cost of the
    chosen material that is 0 only for the target material.  Dimension
    kinds are interleaved (continuous, integer, categorical, ...)."""

    name = "mixed-cat"
    reference_optimum = 0.0

    def __init__(self, core, seed: int, per_kind: int = 8):
        rng = np.random.default_rng(seed)
        lo, hi = CONT_BOUNDS
        ilo, ihi = INT_BOUNDS
        self.cont_target = rng.uniform(0.8 * lo, 0.8 * hi, size=per_kind)
        self.int_target = [int(v) for v in rng.integers(ilo + 1, ihi, size=per_kind)]
        self.material_cost = []
        for _ in range(per_kind):
            cost = rng.uniform(1.0, 10.0, size=len(MATERIALS))
            cost[rng.integers(len(MATERIALS))] = 0.0
            self.material_cost.append(dict(zip(MATERIALS, cost.tolist())))
        dims = []
        for _ in range(per_kind):
            dims += [core.Continuous(lo, hi), core.IntegerRange(ilo, ihi),
                     core.Categorical(MATERIALS)]
        self.space = core.SearchSpace(dims)

    def __call__(self, sol) -> float:
        value = float(np.sum((sol.cont - self.cont_target) ** 2))
        ints, materials = sol.disc[0::2], sol.disc[1::2]
        for x, target in zip(ints, self.int_target):
            value += (x - target) ** 2
        for symbol, cost in zip(materials, self.material_cost):
            value += cost[symbol]
        return value

    def absolute_error(self, achieved: float) -> float:
        return abs(achieved - self.reference_optimum)
