import numpy as np
import pytest

from lcdsubspace.errors import DimensionMismatch, IntOverflow
from lcdsubspace.linalg import int_matmul


def _python_product(A, B):
    A, B = np.asarray(A).tolist(), np.asarray(B).T.tolist()
    return [[sum(a * b for a, b in zip(row, col)) for col in B] for row in A]


def test_int_matmul_matches_python_ints():
    # entries below 2**3, 2**20 and 2**28 put the magnitude bound below
    # 2**24, below 2**53 and past it, so each product path runs
    rng = np.random.default_rng(53)
    for top in (1 << 3, 1 << 20, 1 << 28):
        for m, k, n in ((0, 4, 3), (3, 0, 2), (1, 1, 1), (7, 30, 5), (16, 16, 16)):
            A = rng.integers(-top, top, (m, k))
            B = rng.integers(-top, top, (k, n))
            got = int_matmul(A, B)
            assert got.dtype == np.int64 and got.shape == (m, n)
            assert got.tolist() == _python_product(A, B)


@pytest.mark.parametrize("a, b, exact", [(1 << 12, 1 << 11, 1 << 24), (1 << 26, 1 << 26, 1 << 53)])
def test_int_matmul_exact_on_each_side_of_a_float_bound(a, b, exact):
    # float32 holds every integer below 2**24 exactly, float64 below 2**53.
    # Both products are odd; the bound, 2 * max|A| * max|B|, is just below
    # the float's limit for the first and just above it for the second,
    # whose product that float would round to an even number
    below = (np.array([[a, a - 1]]), np.array([[b - 1], [b - 1]]))
    above = (np.array([[a, a + 1]]), np.array([[b + 1], [b + 1]]))
    assert 2 * a * (b - 1) < exact < 2 * (a + 1) * (b + 1)
    value = (2 * a + 1) * (b + 1)
    assert value > exact and value % 2 == 1
    assert int_matmul(*above).tolist() == [[value]]
    assert int_matmul(*below).tolist() == [[(2 * a - 1) * (b - 1)]]
    for A, B in (below, above):
        for sa, sb in ((1, -1), (-1, -1), (-1, 1)):
            assert int_matmul(sa * A, sb * B).tolist() == _python_product(sa * A, sb * B)


def test_int_matmul_overflow_guard():
    big = np.array([[1 << 31]], dtype=np.int64)
    with pytest.raises(IntOverflow):
        int_matmul(big, big)
    with pytest.raises(IntOverflow):
        int_matmul(np.ones((1, 4), dtype=np.int64) << 30, np.ones((4, 1), dtype=np.int64) << 30)
    # just below 2**62 the int64 product is exact
    A = np.array([[(1 << 31) - 1]], dtype=np.int64)
    B = np.array([[(1 << 31) + 1]], dtype=np.int64)
    assert int_matmul(A, B).tolist() == [[(1 << 62) - 1]]
    with pytest.raises(DimensionMismatch):
        int_matmul(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))
