import numpy as np
import pytest

from lcdsubspace.codes import SubspaceCode, params
from lcdsubspace.constructions import algebra_closure, build_block, subspace_code_from_algebra
from lcdsubspace.drg import Graph, PermutationGroup
from lcdsubspace.errors import DimensionMismatch, IntOverflow, LcdError, NotAnInteger
from lcdsubspace.fileio import format_matrix_text
from lcdsubspace.gf import field_from_order, field_new
from lcdsubspace.hadamard import HadamardMatrix, WeighingMatrix
from lcdsubspace.linalg import int_matmul, kron
from lcdsubspace.schemes import EquitablePartition, scheme_from_matrices
from lcdsubspace.subspaces import span


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


def _matrix(pattern, x):
    """pattern with x for each 1 and x's type's default for each 0: a whole
    operand of x's dtype (True among ints would be read as 1 by numpy)."""
    return np.array([[x if e else type(x)() for e in row] for row in pattern])


_K2 = [[0, 1], [1, 0]]
_F3 = field_new(3)
# one pair of codewords, within a budget of 1
_TWO_LINES = SubspaceCode([span(_F3, 2, [[1, 0]]), span(_F3, 2, [[0, 1]])])

# one entry point each, called with the value under test in its integer slot
_INTEGER_ENTRY_POINTS = {
    "Graph": lambda x: Graph(_matrix(_K2, x)),
    "HadamardMatrix": lambda x: HadamardMatrix(_matrix([[1]], x)),
    "scheme_from_matrices": lambda x: scheme_from_matrices(
        [_matrix([[1, 0], [0, 1]], x), _matrix(_K2, x)]),
    "int_matmul": lambda x: int_matmul(_K2, _matrix(_K2, x)),
    "kron": lambda x: kron(_matrix(_K2, x), _K2),
    "format_matrix_text": lambda x: format_matrix_text(_matrix(_K2, x), "int"),
    "build_block": lambda x: build_block(_F3, np.eye(2, dtype=np.int64), x),
    "subspace_code_from_algebra": lambda x: subspace_code_from_algebra(
        algebra_closure(_F3, [np.ones((3, 3), dtype=np.int64)]), alphas=(x,)),
    "WeighingMatrix.weight": lambda x: WeighingMatrix([[1]], weight=x),
    "EquitablePartition.cells": lambda x: EquitablePartition([[0], [x]], 2),
    "EquitablePartition.size": lambda x: EquitablePartition([[0]], x),
    "PermutationGroup.degree": lambda x: PermutationGroup(x, [(0,)]),
    "PermutationGroup.images": lambda x: PermutationGroup(2, [(x, 0)]),
    "GF.pow": lambda x: _F3.pow(2, x),
    "params.pair_budget": lambda x: params(_TWO_LINES, pair_budget=x),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_integer_inputs_are_taken_as_they_are(entry):
    # a cast once truncated 1.7 to 1 and read True, an object or "1" as an
    # integer: Graph([[0, 1.7], [1.7, 0]]) was K2 and build_block's alpha
    # 1.5 was 1.  Each such value is rejected; ints and uints still pass
    call = _INTEGER_ENTRY_POINTS[entry]
    rng = np.random.default_rng(sum(map(ord, entry)))
    for bad in (1.7, True, object(), "1", 1 + rng.random()):
        with pytest.raises(LcdError):
            call(bad)
    for good in (1, np.int64(1), np.uint8(1), np.uint64(1)):
        call(good)


def test_field_orders_are_taken_as_they_are():
    # int() once read 9.7 as 9 and parsed "9"; 1 is no order, so the good
    # values here are orders
    for bad in (9.7, "9", True, np.float64(9)):
        with pytest.raises(NotAnInteger):
            field_from_order(bad)
    for good in (9, np.int64(9), np.uint8(9), np.uint64(9)):
        assert field_from_order(good) is field_new(3, 2)
