import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famv import (Categorical, Continuous, DistanceKind, IntegerRange,
                  MixedSolution, SearchSpace, euclidean, gower, hamming,
                  mixed_eh, random_solution)
from famv.distances import CODE_DISTANCES


class TestEuclidean:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert euclidean(v, v) == 0.0

    def test_three_four_five(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_symmetry(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert euclidean(a, b) == euclidean(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean(np.array([1.0]), np.array([1.0, 2.0]))


class TestHamming:
    def test_identity(self):
        assert hamming(("a", "b"), ("a", "b")) == 0

    def test_single_difference(self):
        assert hamming(("a", "b", "c"), ("a", "x", "c")) == 1

    def test_all_differ(self):
        assert hamming((1, 2, 3), (4, 5, 6)) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming((1,), (1, 2))


@pytest.fixture
def eh_space():
    """D = 4: two continuous plus two categorical dimensions."""
    return SearchSpace([
        Continuous(-10.0, 10.0),
        Continuous(-10.0, 10.0),
        Categorical(("a", "b", "c")),
        Categorical(("a", "b", "c")),
    ])


class TestMixedEh:
    def test_identity(self, eh_space):
        x = MixedSolution(np.array([1.0, 2.0]), ("a", "b"))
        assert mixed_eh(eh_space, x, x) == 0.0

    def test_hand_computed(self, eh_space):
        x = MixedSolution(np.array([0.0, 0.0]), ("a", "b"))
        y = MixedSolution(np.array([3.0, 4.0]), ("a", "c"))
        assert mixed_eh(eh_space, x, y) == pytest.approx((5.0 + 1.0) / 4.0)

    def test_pure_continuous_degenerates_to_scaled_euclidean(self):
        space = SearchSpace([Continuous(-10.0, 10.0), Continuous(-10.0, 10.0)])
        x = MixedSolution(np.array([0.0, 0.0]), ())
        y = MixedSolution(np.array([3.0, 4.0]), ())
        assert mixed_eh(space, x, y) == pytest.approx(5.0 / 2.0)

    def test_pure_discrete_degenerates_to_scaled_hamming(self):
        space = SearchSpace([Categorical(("a", "b")), Categorical(("a", "b"))])
        x = MixedSolution(np.empty(0), ("a", "a"))
        y = MixedSolution(np.empty(0), ("b", "a"))
        assert mixed_eh(space, x, y) == pytest.approx(1.0 / 2.0)


class TestGower:
    def test_identity(self, mixed_space):
        x = MixedSolution(np.array([0.0, 5.0]), (3, "b"))
        assert gower(mixed_space, x, x) == 0.0

    def test_hand_computed(self):
        space = SearchSpace([Continuous(0.0, 10.0), Categorical(("a", "b"))])
        x = MixedSolution(np.array([2.0]), ("a",))
        y = MixedSolution(np.array([5.0]), ("a",))
        assert gower(space, x, y) == pytest.approx(0.15)

    def test_upper_bound_attained(self, mixed_space):
        x = MixedSolution(np.array([-5.0, 0.0]), (0, "a"))
        y = MixedSolution(np.array([5.0, 10.0]), (9, "b"))
        assert gower(mixed_space, x, y) == pytest.approx(1.0)

    def test_pure_discrete_degenerates_to_scaled_hamming(self):
        space = SearchSpace([IntegerRange(0, 5), IntegerRange(0, 5)])
        x = MixedSolution(np.empty(0), (0, 3))
        y = MixedSolution(np.empty(0), (4, 3))
        assert gower(space, x, y) == pytest.approx(1.0 / 2.0)


class TestSolutionDistance:
    def test_dispatch(self, mixed_space, rng):
        # each kind's kernel, fed the engine's difference and code mismatch
        # count, gives the public value
        for _ in range(50):
            x = random_solution(mixed_space, rng)
            for y in (x, random_solution(mixed_space, rng)):
                mismatches = int(np.count_nonzero(mixed_space.encode(x.disc)
                                                  != mixed_space.encode(y.disc)))
                for kind, public in ((DistanceKind.MIXED_EH, mixed_eh),
                                     (DistanceKind.GOWER, gower)):
                    kernel = CODE_DISTANCES[kind]
                    assert kernel(mixed_space, y.cont - x.cont, mismatches) == \
                        public(mixed_space, x, y)

    def test_nonconforming_rejected(self, mixed_space):
        bad = MixedSolution(np.array([0.0]), (3, "b"))
        good = MixedSolution(np.array([0.0, 5.0]), (3, "b"))
        for fn in (mixed_eh, gower):
            with pytest.raises(ValueError):
                fn(mixed_space, bad, good)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_distance_axioms_property(seed):
    space = SearchSpace([
        Continuous(-5.0, 5.0),
        Continuous(0.0, 10.0),
        IntegerRange(0, 9),
        Categorical(("a", "b", "c")),
    ])
    rng = np.random.default_rng(seed)
    x = random_solution(space, rng)
    y = random_solution(space, rng)
    for fn in (mixed_eh, gower):
        assert fn(space, x, y) >= 0.0
        assert fn(space, x, y) == fn(space, y, x)
        assert fn(space, x, x) == 0.0
    assert 0.0 <= gower(space, x, y) <= 1.0
