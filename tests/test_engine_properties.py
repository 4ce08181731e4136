"""Properties every engine keeps on random small spaces and budgets: budget
accounting, a monotone trace, a conforming final solution and determinism.
The spaces include one-bit chromosomes and one-value dimensions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famv import Categorical, Continuous, IntegerRange, SearchSpace, run_algorithm

_dims = st.one_of(
    st.builds(lambda lo, width: Continuous(float(lo), float(lo + width)),
              st.integers(-5, 5), st.integers(1, 10)),
    st.builds(lambda lo, width: IntegerRange(lo, lo + width),
              st.integers(-3, 3), st.integers(0, 6)),
    st.builds(lambda n: Categorical(tuple(f"s{k}" for k in range(n))),
              st.integers(1, 4)),
)


class Bowl:
    """Squared continuous parts, plus |value| of each integer and the index
    of each category symbol; counts its calls."""

    name = "bowl"
    reference_optimum = 0.0

    def __init__(self, dims):
        self.space = SearchSpace(dims)
        self.calls = 0

    def __call__(self, sol):
        self.calls += 1
        disc = sum(abs(v) if isinstance(d, IntegerRange) else d.values.index(v)
                   for v, d in zip(sol.disc, self.space.discrete))
        return float(np.sum(sol.cont ** 2)) + disc


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "ga"])
@given(dims=st.lists(_dims, min_size=1, max_size=4),
       budget=st.integers(1, 200), seed=st.integers(0, 2**16))
@example(dims=[Categorical(("x", "y"))], budget=200, seed=0)
@example(dims=[IntegerRange(5, 5)], budget=200, seed=0)
@settings(max_examples=25, deadline=None)
def test_engine_properties(algo, dims, budget, seed):
    problem = Bowl(dims)
    trace = run_algorithm(algo, problem, budget, seed)
    assert problem.calls == budget  # every engine spends all of it, never more
    fes = [fe for fe, _ in trace.samples]
    bests = [best for _, best in trace.samples]
    assert all(a < b for a, b in zip(fes, fes[1:]))
    assert fes[-1] <= problem.calls
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert trace.final.solution.conforms(problem.space)
    assert trace.final.fitness == bests[-1] == problem(trace.final.solution)
    again = run_algorithm(algo, Bowl(dims), budget, seed)
    assert again.samples == trace.samples
    assert again.final.solution == trace.final.solution
