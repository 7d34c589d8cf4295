"""Integer matrix helpers shared by the combinatorial modules.

Integer matrices are numpy int64 arrays.  Products and Kronecker products are
guarded against 64-bit overflow: the guard is a conservative magnitude bound,
not a post-hoc check, so a passing call is always exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IntOverflow

_SAFE = 1 << 62


def as_int_matrix(M):
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


def int_matmul(A, B):
    """Exact int64 matrix product; raises IntOverflow instead of wrapping."""
    A = as_int_matrix(A)
    B = as_int_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
    if A.size and B.size:
        bound = int(np.abs(A).max()) * int(np.abs(B).max()) * A.shape[1]
        if bound >= _SAFE:
            raise IntOverflow(f"product magnitude bound {bound} too large")
    return A @ B


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

