"""The behavioural reference: each engine's absolute errors (AE) against
samples checked in from an earlier commit.

A digest pins a run's bits, so a change of a run's stream on purpose must
re-take it, and a fault that enters with that change passes once the digest
is re-taken.  This reference is not re-taken with a stream change.  Each
cell, an algorithm on a problem, re-runs ``SEEDS`` seeds at ``MAX_FE`` FE
and compares its AE sample with the checked-in one by a two-group
Kruskal-Wallis test; the cells' p-values are Holm-adjusted, and an adjusted p
below ``LEVEL`` fails.  Holm holds the family-wise error at ``LEVEL``, so a
change that leaves every engine's behaviour the same fails this test with
probability at most 1% (the chi-square tail is an approximation for 30
against 30 samples).  Re-take the samples only with a change of behaviour
made on purpose, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_behaviour.py <commit>
"""

import json
import sys
from pathlib import Path

import numpy as np

from conftest import ToyMixedProblem

from famv import get_problem, run_algorithm
from famv.stats import holm_adjust, kruskal_wallis

REFERENCE = Path(__file__).with_name("behaviour_reference.json")
SEEDS, MAX_FE, LEVEL = 30, 2000, 0.01
ALGORITHMS = ("fa", "famv-h", "famv-g", "famv-h-adaptive", "ga")
PROBLEMS = {"sphere": lambda: get_problem("sphere", dim=10),
            "rastrigin": lambda: get_problem("rastrigin", dim=10),
            "vessel": lambda: get_problem("vessel"),
            "csd": lambda: get_problem("csd"),
            "toy": ToyMixedProblem}
# every engine on every problem without a categorical dimension, and famv's
# categorical step on the toy's
CELLS = [(p, a) for p in PROBLEMS if p != "toy" for a in ALGORITHMS] + [("toy", "famv-h")]


def _errors(problem_name: str, algo: str) -> list[float]:
    problem = PROBLEMS[problem_name]()
    return [abs(run_algorithm(algo, problem, MAX_FE, seed).final.fitness
                - problem.reference_optimum) for seed in range(SEEDS)]


def test_every_cell_behaves_as_the_reference():
    reference = json.loads(REFERENCE.read_text())
    assert (reference["seeds"], reference["max_fe"]) == (SEEDS, MAX_FE)
    assert sorted(reference["cells"]) == sorted(f"{p}/{a}" for p, a in CELLS)
    rows = []
    for problem_name, algo in CELLS:
        key = f"{problem_name}/{algo}"
        now, then = _errors(problem_name, algo), reference["cells"][key]
        rows.append((key, kruskal_wallis({"now": now, "reference": then})[1],
                     float(np.median(now)), float(np.median(then))))
    adjusted = holm_adjust([p for _, p, _, _ in rows])
    failing = [f"{key}: raw p {p:.3g}, adjusted p {adj:.3g}, median AE {now:.6g} "
               f"against the reference's {then:.6g}"
               for (key, p, now, then), adj in zip(rows, adjusted) if adj < LEVEL]
    assert not failing, (f"cells unlike the reference of {reference['commit']}:\n"
                         + "\n".join(failing))


if __name__ == "__main__":
    head = json.dumps({"commit": sys.argv[1], "seeds": SEEDS, "max_fe": MAX_FE})
    cells = ",\n".join(f"  {json.dumps(f'{p}/{a}')}: {json.dumps(_errors(p, a))}"
                       for p, a in CELLS)
    REFERENCE.write_text(f'{head[:-1]}, "cells": {{\n{cells}\n}}}}\n')
