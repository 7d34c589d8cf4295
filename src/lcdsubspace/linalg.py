"""Integer matrix helpers shared by the combinatorial modules.

Integer matrices are numpy int64 arrays.  Products and Kronecker products are
guarded against 64-bit overflow: the guard is a conservative magnitude bound,
not a post-hoc check, so a passing call is always exact.

numpy multiplies int64 matrices without BLAS.  The same bound, max|A| *
max|B| * inner_dim, caps every partial sum of a product, so whenever it is
below 2**24 (float32) or 2**53 (float64) the product runs through float BLAS
in the narrowest such type and is cast back: every partial sum is then an
integer the float type holds exactly, whatever the summation order.  Past
2**53 it is numpy's int64 product, and past 2**62 ``int_matmul`` raises
``IntOverflow``.  ``GF.matmul`` takes its products over F_p the same way.

Integers are taken as they are, never cast: ``as_int_matrix`` rejects an
operand whose dtype is not an integer one, and ``as_integer`` a scalar that
is not an integer, with ``NotAnInteger``, since a cast would truncate 1.7 to
1, read True or an object as an integer and parse "1".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, IntOverflow, NotAnInteger

_SAFE = 1 << 62
# float types for integer products, narrowest first, each with the power of
# two below which it holds every integer exactly (its mantissa width)
_EXACT_FLOATS = ((np.float32, 1 << 24), (np.float64, 1 << 53))


def square_root_or_none(v):
    """The integer square root of v when v is a perfect square, else None."""
    s = math.isqrt(v)
    return s if s * s == v else None


def as_integer(x, what):
    """x as an int, once it is one: a Python or numpy integer, not a bool, a
    float or a str, which int() would read, truncate or parse."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise NotAnInteger(f"{what} must be an integer, got {x!r}")


def as_int_matrix(M):
    """M as an int64 matrix, once its entries are integers: a nonempty
    operand of any other dtype raises ``NotAnInteger`` (an empty list, which
    numpy reads as floats, holds no entry)."""
    A = np.asarray(M)
    if A.size and A.dtype.kind not in "iu":
        raise NotAnInteger(f"matrix entries must be integers, not {A.dtype}")
    A = A.astype(np.int64, copy=False)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


def exact_product(A, B, bound):
    """A @ B of int64 matrices whose partial sums are all at most bound in
    magnitude: through float BLAS in the narrowest type that holds every
    integer below bound exactly, else numpy's int64 product (no BLAS)."""
    for dtype, exact in _EXACT_FLOATS:
        if bound < exact:
            return (A.astype(dtype) @ B.astype(dtype)).astype(np.int64)
    return A @ B


def int_matmul(A, B):
    """Exact int64 matrix product; raises IntOverflow instead of wrapping."""
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
    if not (A.size and B.size):
        return A @ B
    bound = int(np.abs(A).max()) * int(np.abs(B).max()) * A.shape[1]
    if bound >= _SAFE:
        raise IntOverflow(f"product magnitude bound {bound} too large")
    return exact_product(A, B, bound)


def kron(A, B):
    """Kronecker product with the same overflow guard."""
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    if A.size and B.size:
        bound = int(np.abs(A).max()) * int(np.abs(B).max())
        if bound >= _SAFE:
            raise IntOverflow(f"entry magnitude bound {bound} too large")
    return np.kron(A, B)


def reduce_mod(A, field):
    """Entrywise reduction of an integer matrix into the prime subfield.

    k mod p encodes the element k*1 of F_{p^r}; negative entries reduce to
    their canonical residues.
    """
    A = as_int_matrix(A)
    return A % field.p
