import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import encode
from famv import (Categorical, Continuous, DistanceKind, IntegerRange,
                  MixedSolution, SearchSpace, euclidean, gower, hamming,
                  mixed_eh, random_solution)
from famv.distances import (CODE_DISTANCES, float_distance, norm, norm_floats, total,
                            total_floats)


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
                mismatches = int(np.count_nonzero(encode(mixed_space, x.disc)
                                                  != encode(mixed_space, y.disc)))
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


# non-negative terms, the only kind a distance sums, from subnormal to the
# largest double, so that long sums overflow to inf
_terms = st.floats(0.0, 1.7976931348623157e308)


@given(st.lists(_terms, max_size=128))
@example([5e-324, 1.0, 5e-324])
@example([1e308, 1e308, 1.0])
@settings(max_examples=200, deadline=None)
def test_scalar_sum_is_the_left_to_right_sum(v):
    # the scalar form's sum and the array form's, np.add.accumulate's last
    # partial sum, give one double, bit for bit; numpy warns where the sum
    # overflows, and Python does not
    with np.errstate(over="ignore"):
        array = total(np.array(v, dtype=float))
    assert total_floats(v).hex() == array.hex()


def test_sums_run_left_to_right():
    # (1 + u) + u rounds back to 1 twice, while 1 + (u + u) is above 1
    u = 2.0 ** -53
    for v in ([1.0, u, u], [u, u, 1.0]):
        assert total(np.array(v)) == total_floats(v) == v[0] + v[1] + v[2]
    assert total_floats([1.0, u, u]) == 1.0 < total_floats([u, u, 1.0])
    assert total(np.empty(0)) == total_floats([]) == 0.0


@given(st.lists(st.tuples(st.floats(-1e200, 1e200), st.floats(-1e200, 1e200)), max_size=128))
@example([(0.0, 3.0), (4.0, 0.0)])
@settings(max_examples=100, deadline=None)
def test_scalar_norm_equals_the_array_norm(pairs):
    xi, xj = [p for p, _ in pairs], [q for _, q in pairs]
    with np.errstate(over="ignore"):   # a square past the largest double is inf
        array = norm(np.array(xj) - np.array(xi)) if pairs else norm(np.empty(0))
    assert norm_floats(xi, xj).hex() == array.hex()


@given(seed=st.integers(0, 2 ** 31), n_c=st.integers(0, 20), n_d=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_float_distance_equals_the_code_distance(seed, n_c, n_d):
    # each measure's scalar kernel gives the array kernel's double
    assume(n_c + n_d)
    space = SearchSpace([Continuous(-5.0, 1e3)] * n_c + [IntegerRange(0, 9)] * n_d)
    rng = np.random.default_rng(seed)
    xi, xj = (-5.0 + rng.uniform(0.0, 1.0, (2, n_c)) ** 8 * 1005.0)
    m = int(rng.integers(0, n_d + 1))
    for kind in DistanceKind:
        assert float_distance(kind, space)(xi.tolist(), xj.tolist(), m).hex() == \
            CODE_DISTANCES[kind](space, xj - xi, m).hex()
