"""Symmetric association schemes, equitable partitions, quotient algebras.

A scheme is presented as its list of 0/1 relation matrices [A_0, ..., A_d]
with A_0 = I.  Construction verifies all axioms and computes the full tensor
of intersection numbers p_{ij}^k from matrix products, each product compared
with its values at each relation's first pair in one array comparison.  A
sample of them is recounted combinatorially, by common neighbours held as
bit masks, with no matrix product, so the two computation paths stay
independent.  All arithmetic is exact int64.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalInconsistency,
    MissingIdentity,
    NonIntegralQuotient,
    NotAPartition,
    NotClosed,
    NotEquitable,
    NotSymmetric,
    TooManyClasses,
)
from .linalg import as_int_matrix, int_matmul

_SPOT_SEED = 0x5C4E
_SPOT_PAIRS = 10


class AssociationScheme:
    """Verified scheme: relation matrices plus intersection-number tensor."""

    __slots__ = ("mats", "tensor", "size", "classes")

    def __init__(self, mats, tensor):
        self.mats = mats
        self.tensor = tensor
        self.size = mats[0].shape[0]
        self.classes = len(mats) - 1

    @property
    def valencies(self):
        return tuple(int(self.tensor[i, i, 0]) for i in range(self.classes + 1))

    def __repr__(self):
        return f"AssociationScheme(|X|={self.size}, d={self.classes})"


def scheme_from_matrices(mats):
    """Verify the scheme axioms and return the scheme with its tensor.

    Checks: square matrices of one size, 0/1 entries, A_0 = I, symmetry,
    the matrices partition X x X, and closure of products in their span.
    """
    mats = [as_int_matrix(M) for M in mats]
    if not mats:
        raise MissingIdentity("no matrices given")
    n = mats[0].shape[0]
    for idx, M in enumerate(mats):
        if M.shape != (n, n):
            raise DimensionMismatch(f"matrix {idx} has shape {M.shape}, expected {(n, n)}")
        if not ((M == 0) | (M == 1)).all():
            raise NotAPartition(f"matrix {idx} has entries outside {{0,1}}", witness=idx)
    if not (mats[0] == np.eye(n, dtype=np.int64)).all():
        raise MissingIdentity("the 0th matrix must be the identity")
    for idx, M in enumerate(mats):
        if not (M == M.T).all():
            raise NotSymmetric(f"matrix {idx} is not symmetric", witness=idx)
    total = sum(mats)
    if not (total == 1).all():
        bad = np.argwhere(total != 1)[0]
        raise NotAPartition(
            f"matrices do not partition X x X at position {tuple(bad)}",
            witness=tuple(int(v) for v in bad))

    d = len(mats) - 1
    tensor = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    if not n:   # no pairs: every relation is empty
        return AssociationScheme(tuple(mats), tensor)
    # S is one relation per row, n^2 wide: label holds the relation of each
    # pair, first each relation's first pair in row-major order, and has is 1
    # there, or 0 for an empty relation, whose p_ij^k stays 0.  A product is
    # closed when it equals its values at the first pairs, read through label
    S = np.stack(mats).reshape(d + 1, n * n)
    label = S.argmax(0)
    first = S.argmax(1)
    has = S[np.arange(d + 1), first]
    for i in range(d + 1):
        for j in range(i, d + 1):
            P = int_matmul(mats[i], mats[j]).ravel()
            v = P[first] * has
            bad = P != v[label]
            if bad.any():
                k = int(label[bad].min())
                raise NotClosed(
                    f"product A_{i} A_{j} is not constant on relation {k}",
                    witness=(i, j, k))
            tensor[i, j] = tensor[j, i] = v

    _spot_check_tensor(mats, tensor)
    return AssociationScheme(tuple(mats), tensor)


def _spot_check_tensor(mats, tensor):
    """Recount a sample of p_{ij}^k by common neighbours.

    Independent path from the matrix products: each point's neighbours in
    each relation as a bit mask (_neighbour_masks), common neighbours
    counted with (a & b).bit_count(), at ten random pairs per relation.
    """
    rng = random.Random(_SPOT_SEED)
    n = mats[0].shape[0]
    nbrs = [_neighbour_masks(M) for M in mats]
    T = tensor.tolist()
    for k, M in enumerate(mats):
        pos = np.flatnonzero(M == 1).tolist()
        if not pos:
            continue
        picks = [divmod(pos[rng.randrange(len(pos))], n) for _ in range(_SPOT_PAIRS)]
        for x, y in picks:
            at_y = [N[y] for N in nbrs]
            for i, N in enumerate(nbrs):
                for j, b in enumerate(at_y):
                    count = (N[x] & b).bit_count()
                    if count != T[i][j][k]:
                        raise InternalInconsistency(
                            f"tensor p_{i}{j}^{k} = {T[i][j][k]} but "
                            f"counting at ({x},{y}) gives {count}",
                            witness=(i, j, k, x, y))


def _neighbour_masks(M):
    """Each row x of a 0/1 matrix M as an int with bit y set where M[x, y] = 1."""
    B = np.packbits(M == 1, axis=1, bitorder="little")
    buf, nb = B.tobytes(), B.shape[1]
    return [int.from_bytes(buf[x * nb:(x + 1) * nb], "little") for x in range(len(M))]


class EquitablePartition:
    """Ordered partition of {0..n-1} with its 0/1 characteristic matrix."""

    __slots__ = ("size", "cells", "char_matrix", "cell_sizes", "cell_of")

    def __init__(self, cells, size):
        size = int(size)
        seen = np.full(size, -1, dtype=np.int64)
        norm = []
        for ci, cell in enumerate(cells):
            cell = sorted(int(v) for v in cell)
            if not cell:
                raise NotAPartition("empty cell")
            for v in cell:
                if not 0 <= v < size:
                    raise IndexOutOfRange(f"index {v} outside [0, {size})")
                if seen[v] != -1:
                    raise NotAPartition(f"index {v} appears in two cells", witness=v)
                seen[v] = ci
            norm.append(tuple(cell))
        if (seen == -1).any():
            missing = int(np.flatnonzero(seen == -1)[0])
            raise NotAPartition(f"index {missing} not covered", witness=missing)
        order = sorted(range(len(norm)), key=lambda c: norm[c][0])
        self.cells = tuple(norm[c] for c in order)
        self.size = size
        H = np.zeros((size, len(self.cells)), dtype=np.int64)
        for ci, cell in enumerate(self.cells):
            H[list(cell), ci] = 1
        self.char_matrix = H
        self.cell_sizes = tuple(len(c) for c in self.cells)
        cell_of = np.zeros(size, dtype=np.int64)
        for ci, cell in enumerate(self.cells):
            cell_of[list(cell)] = ci
        self.cell_of = cell_of

    @property
    def t(self):
        return len(self.cells)

    @property
    def equal_cells(self):
        return len(set(self.cell_sizes)) == 1

    @classmethod
    def singletons(cls, size):
        return cls([[i] for i in range(size)], size)

    @classmethod
    def contiguous_blocks(cls, size, block):
        if size % block:
            raise NotAPartition(f"{size} points cannot split into blocks of {block}")
        return cls([range(i, i + block) for i in range(0, size, block)], size)

    def __repr__(self):
        return f"EquitablePartition(n={self.size}, t={self.t})"


def _matrix_list(matrices):
    if isinstance(matrices, AssociationScheme):
        return list(matrices.mats)
    if isinstance(matrices, np.ndarray) and matrices.ndim == 2:
        return [as_int_matrix(matrices)]
    return [as_int_matrix(M) for M in matrices]


@dataclass(frozen=True)
class EquitableCheck:
    ok: bool
    witness: dict | None

    def __bool__(self):
        return self.ok


def verify_equitable(partition, matrices):
    """Constant block row sums and block column sums for every matrix."""
    witness, _ = _equitable(partition, _matrix_list(matrices))
    return EquitableCheck(witness is None, witness)


def _equitable(partition, mats):
    """verify_equitable's witness, None for an equitable partition, and the
    products A H of the matrices A it checked.

    Each side S, A H and then A^T H, is compared with S taken at the first
    point of each point's cell in one array comparison, read in cell order
    (the cells in order, each point by point), so the witness is the first
    differing entry of the first cell that has one."""
    H = partition.char_matrix
    order = np.argsort(partition.cell_of, kind="stable")
    # each point's cell's first point, where its cell first appears in order
    lead = order[np.searchsorted(partition.cell_of[order], partition.cell_of[order])]
    products = []
    for mi, A in enumerate(mats):
        if A.shape[0] != partition.size:
            raise DimensionMismatch(
                f"matrix {mi} of order {A.shape[0]} vs partition on {partition.size}")
        products.append(int_matmul(A, H))
        for side, S in (("row", products[-1]), ("col", int_matmul(A.T, H))):
            bad = np.argwhere(S[order] != S[lead])
            if len(bad):
                point = int(order[bad[0, 0]])
                return {"matrix": mi, "side": side, "cell": int(partition.cell_of[point]),
                        "point": point, "target_cell": int(bad[0, 1])}, products
    return None, products


@dataclass(frozen=True)
class QuotientSet:
    """Integer quotient matrices M_i with A_i H = H M_i."""

    quotients: tuple
    cell_sizes: tuple
    equal_cells: bool


def quotient_matrices(partition, matrices):
    """Exact quotients (H^T H)^{-1} H^T A_i H of an equitable partition."""
    mats = _matrix_list(matrices)
    witness, products = _equitable(partition, mats)
    if witness is not None:
        raise NotEquitable("partition is not equitable", witness=witness)
    H = partition.char_matrix
    sizes = np.array(partition.cell_sizes, dtype=np.int64)
    quotients = []
    for A, AH in zip(mats, products):
        num = int_matmul(H.T, AH)
        if (num % sizes[:, None] != 0).any():
            bad = np.argwhere(num % sizes[:, None] != 0)[0]
            raise NonIntegralQuotient(
                f"entry {tuple(bad)} not divisible by cell size", witness=tuple(bad))
        M = num // sizes[:, None]
        if not (AH == int_matmul(H, M)).all():
            raise InternalInconsistency("A H != H M after quotient")
        quotients.append(M)
    return QuotientSet(tuple(quotients), partition.cell_sizes,
                       partition.equal_cells)


@dataclass(frozen=True)
class QuotientAlgebraCheck:
    ok: bool
    witness: tuple | None

    def __bool__(self):
        return self.ok


def verify_quotient_algebra(scheme, quotient_set):
    """M_i M_j = sum_k p_{ij}^k M_k over the integers, for all i, j."""
    Ms = quotient_set.quotients
    d = scheme.classes
    if len(Ms) != d + 1:
        raise DimensionMismatch(f"{len(Ms)} quotients for {d + 1} relations")
    for i in range(d + 1):
        for j in range(d + 1):
            lhs = int_matmul(Ms[i], Ms[j])
            rhs = sum(int(scheme.tensor[i, j, k]) * Ms[k] for k in range(d + 1))
            if not (lhs == rhs).all():
                return QuotientAlgebraCheck(False, (i, j))
    return QuotientAlgebraCheck(True, None)


def divisibility_screen(scheme, p):
    """All maximal index sets I with p | p_{ij}^k for all i, j in I and all k.

    Vertices are the classes i with p dividing every p_{ii}^k; edges join
    compatible pairs; maximal cliques via Bron-Kerbosch.  Singletons count.
    """
    d = scheme.classes
    if d + 1 > 20:
        raise TooManyClasses(f"{d + 1} classes exceed the screen cap of 20")
    T = scheme.tensor
    good = [i for i in range(d + 1) if not (T[i, i, :] % p).any()]
    adj = {i: set() for i in good}
    for a, i in enumerate(good):
        for j in good[a + 1:]:
            if not (T[i, j, :] % p).any():
                adj[i].add(j)
                adj[j].add(i)
    return _maximal_cliques(adj)


def _maximal_cliques(adj):
    cliques = []

    def expand(R, P, X):
        if not P and not X:
            cliques.append(tuple(sorted(R)))
            return
        pivot = max(sorted(P | X), key=lambda u: len(adj[u] & P))
        for v in sorted(P - adj[pivot]):
            expand(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    expand(set(), set(adj), set())
    return sorted(c for c in cliques if c)
