"""Shared fixtures and the acceptance-report terminal hook."""

import numpy as np
import pytest

from famv import Categorical, Continuous, IntegerRange, SearchSpace

# one line per acceptance criterion, e.g. "criterion 1 (...): PASS";
# populated by tests/test_acceptance.py and echoed after the pytest summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def encode(space: SearchSpace, disc) -> np.ndarray:
    """The code vector of a tuple of integer values and category symbols."""
    return np.array([v if isinstance(d, IntegerRange) else d.values.index(v)
                     for v, d in zip(disc, space.discrete)], dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def mixed_space():
    """Two continuous, one integer, one categorical dimension."""
    return SearchSpace([
        Continuous(-5.0, 5.0),
        Continuous(0.0, 10.0),
        IntegerRange(0, 9),
        Categorical(("a", "b", "c")),
    ])


class ToyMixedProblem:
    """1 continuous + 1 categorical toy with a unique optimum at
    (1.23, "b") and optimum value 0."""

    name = "toy"
    reference_optimum = 0.0
    space = SearchSpace([Continuous(-5.0, 5.0),
                         Categorical(("a", "b", "c", "d"))])
    _offsets = {"a": 0.5, "b": 0.0, "c": 1.0, "d": 2.0}

    def __call__(self, sol):
        return float((sol.cont[0] - 1.23) ** 2) + self._offsets[sol.disc[0]]


@pytest.fixture
def toy_problem():
    return ToyMixedProblem()
