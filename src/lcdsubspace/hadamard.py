"""Hadamard and weighing matrices: validation, unbiased pairs, small search.

A weighing matrix W(n, k) has order n, entries in {-1, 0, 1} and
W W^T = W^T W = k I; k is its weight.  A Hadamard matrix of order n is a
W(n, n): ``HadamardMatrix`` subclasses ``WeighingMatrix``, narrowing the
alphabet to +-1, and its weight is its order (so is an ``UnbiasedSet``'s
weight when its kind is "hadamard").  Everything is exact integer arithmetic.
A pair is unbiased when A B^T is sqrt(k) times a matrix of the same type;
the quotient is returned as a witness.

One backtracker, over the candidate rows of ``_weighing_rows`` in a fixed
order, enumerates the Hadamard matrices of small order and searches for an
extension of an unbiased set, so results are reproducible.  It counts every
candidate row it tries against a node budget, and the search distinguishes
"budget ran out" from "search space exhausted".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .errors import (
    BadAlphabet,
    BudgetExhausted,
    DimensionMismatch,
    GramFailure,
    InternalInconsistency,
    InvalidSpec,
    NotRegular,
    NotSquareOrder,
    NotUnbiased,
    OddN,
    OrderTooLarge,
    UnequalCells,
)
from .linalg import as_int_matrix, int_matmul, kron, square_root_or_none
from .schemes import quotient_matrices

_SEARCH_BUDGET = 10 ** 8
_ENUM_CAP = 4          # orders with a cached full enumeration
_ROW_CAP = 16          # largest order for backtracking candidates
_WEIGHING_CAND_CAP = 1 << 22
_GRAM_CAP = 4096       # most candidate rows whose Gram matrix is kept


class WeighingMatrix:
    """A W(n, k): order n, entries in {-1,0,1}, W W^T = W^T W = k I (checked).

    The weight k defaults to the number of nonzero entries in the first row.
    """

    __slots__ = ("order", "weight", "entries")
    _alphabet = (-1, 0, 1)

    def __init__(self, entries, weight=None):
        M = as_int_matrix(entries)
        if M.shape[0] != M.shape[1] or M.size == 0:
            raise DimensionMismatch(f"expected a nonempty square matrix, got {M.shape}")
        bad = ~np.isin(M, self._alphabet)
        if bad.any():
            at = tuple(int(v) for v in np.argwhere(bad)[0])
            raise BadAlphabet(f"entry at {at} is not one of {self._alphabet}",
                              witness=at)
        n = M.shape[0]
        k = int(np.count_nonzero(M[0]) if weight is None else weight)
        # the Gram diagonal is the nonzero count of each row and column
        for G in (int_matmul(M, M.T), int_matmul(M.T, M)):
            bad = G != k * np.eye(n, dtype=np.int64)
            if bad.any():
                at = tuple(int(v) for v in np.argwhere(bad)[0])
                raise GramFailure(f"Gram condition fails at {at} for weight {k}",
                                  witness=at)
        if k == 0:
            raise InvalidSpec("the zero matrix has weight 0; a weight must be positive")
        M = M.copy()
        M.setflags(write=False)
        self.order = n
        self.weight = k
        self.entries = M

    def __eq__(self, other):
        return (type(other) is type(self) and self.weight == other.weight
                and self.entries.tobytes() == other.entries.tobytes())

    def __hash__(self):
        return hash((self.order, self.weight, self.entries.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, weight={self.weight})"


class HadamardMatrix(WeighingMatrix):
    """A W(n, n): order n, entries +-1 and H H^T = n I (checked)."""

    __slots__ = ()
    _alphabet = (-1, 1)

    def __init__(self, entries):
        super().__init__(entries)


def validate(matrix, kind, weight=None):
    if kind == "hadamard":
        return HadamardMatrix(matrix)
    if kind == "weighing":
        return WeighingMatrix(matrix, weight)
    raise InvalidSpec(f"unknown kind {kind!r}")


def sylvester(k):
    """Order 2^k Hadamard matrix by repeated doubling."""
    if k < 0:
        raise InvalidSpec("k must be nonnegative")
    if 2 ** k > 256:
        raise OrderTooLarge(f"order {2 ** k} exceeds the cap of 256")
    H = np.array([[1]], dtype=np.int64)
    step = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(k):
        H = kron(step, H)
    return HadamardMatrix(H)


def is_regular(h):
    """All row sums and all column sums equal; the common value is +-sqrt(n)."""
    n = h.order
    if square_root_or_none(n) is None:
        raise NotSquareOrder(f"regularity needs square order, got {n}")
    rows = h.entries.sum(axis=1)
    cols = h.entries.sum(axis=0)
    if (rows != rows[0]).any() or (cols != cols[0]).any():
        return False
    if rows[0] != cols[0] or int(rows[0]) ** 2 != n:
        raise InternalInconsistency("constant sums must square to the order")
    return True


def is_bush(h):
    """Diagonal blocks all-ones, off-diagonal blocks with zero line sums."""
    n = h.order
    s = square_root_or_none(n)
    if s is None:
        raise NotSquareOrder(f"Bush structure needs square order, got {n}")
    if s % 2:
        return False
    M = h.entries
    for i in range(s):
        for j in range(s):
            blk = M[i * s:(i + 1) * s, j * s:(j + 1) * s]
            if i == j:
                if not (blk == 1).all():
                    return False
            elif blk.sum(axis=0).any() or blk.sum(axis=1).any():
                return False
    if not is_regular(h):
        raise InternalInconsistency("Bush structure must imply regularity")
    return True


@dataclass(frozen=True)
class UnbiasedCheck:
    ok: bool
    quotient: object | None
    witness: dict | None

    def __bool__(self):
        return self.ok


def are_unbiased(a, b):
    """Check A B^T = sqrt(k) * (matrix of the same type); quotient witness.

    A weight k that is not a perfect square cannot support unbiasedness;
    reported as a false result with an explanatory witness, not an error.
    """
    if type(a) is not type(b) or (a.order, a.weight) != (b.order, b.weight):
        raise DimensionMismatch("matrices must share type, order and weight")
    s = square_root_or_none(a.weight)
    if s is None:
        return UnbiasedCheck(False, None, {
            "reason": f"{a.weight} is not a perfect square so no integer sqrt exists"})
    D = int_matmul(a.entries, b.entries.T)
    bad = ~np.isin(D, s * np.array(a._alphabet))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return UnbiasedCheck(False, None, {
            "entry": (int(i), int(j)), "value": int(D[i, j]), "expected": s})
    return UnbiasedCheck(True, type(a)(D // s), None)


_KINDS = {"hadamard": HadamardMatrix, "weighing": WeighingMatrix}


class UnbiasedSet:
    """Pairwise unbiased, pairwise distinct matrices of one kind and order.

    Each member is validated from its entries as the set's kind unless it
    already has that type (and the given weight, if any).
    """

    __slots__ = ("kind", "matrices", "order", "weight")

    def __init__(self, matrices, kind="hadamard", weight=None):
        if kind not in _KINDS:
            raise InvalidSpec(f"unknown kind {kind!r}")
        typed = [M if type(M) is _KINDS[kind] and weight in (None, M.weight)
                 else validate(getattr(M, "entries", M), kind, weight)
                 for M in matrices]
        if not typed:
            raise InvalidSpec("an unbiased set needs at least one matrix")
        self.kind = kind
        self.matrices = tuple(typed)
        self.order = typed[0].order
        self.weight = typed[0].weight
        for i, j in combinations(range(len(typed)), 2):
            # at weight 1 a matrix is unbiased with itself
            check = are_unbiased(typed[i], typed[j])
            if typed[i] == typed[j] or not check.ok:
                raise NotUnbiased(f"matrices {i} and {j} are equal or not unbiased",
                                  witness={"pair": (i, j), **(check.witness or {})})

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def extended(self, matrix):
        return UnbiasedSet(self.matrices + (matrix,), self.kind, self.weight)

    def __repr__(self):
        w = f", weight={self.weight}" if self.kind == "weighing" else ""
        return f"UnbiasedSet({self.kind}, m={len(self)}, order={self.order}{w})"


def _weighing_rows(n, k):
    """All weight-k rows over {-1,0,1}: supports in combination order, then
    signs by bit pattern (0 bit -> +1).  With k = n, every +-1 row."""
    total = math.comb(n, k) << k
    if total > _WEIGHING_CAND_CAP:
        raise OrderTooLarge(
            f"{total} candidate rows exceed the cap of {_WEIGHING_CAND_CAP}")
    shifts = np.arange(k - 1, -1, -1, dtype=np.int32)
    signs = 1 - 2 * ((np.arange(1 << k, dtype=np.int32)[:, None] >> shifts) & 1)
    out = np.zeros((total, n), dtype=np.int64)
    for at, support in enumerate(combinations(range(n), k)):
        out[at << k:(at + 1) << k, list(support)] = signs
    return out


def _orthogonal_sets(rows, n, budget, nodes):
    """Yield every set of n pairwise orthogonal rows as an increasing index
    list, in lexicographic order.

    nodes[0] counts the candidate rows tried; one more than the budget raises
    BudgetExhausted.  Every row order of a set is then also pairwise
    orthogonal, so increasing index lists cover all matrices up to row order.
    """
    gram = int_matmul(rows, rows.T) if len(rows) <= _GRAM_CAP else None

    def orthogonal(c, p):
        return (gram[c, p] if gram is not None else int(rows[c] @ rows[p])) == 0

    def extend(chosen):
        if len(chosen) == n:
            yield chosen
            return
        for c in range(chosen[-1] + 1 if chosen else 0, len(rows)):
            nodes[0] += 1
            if nodes[0] > budget:
                raise BudgetExhausted("node budget exhausted",
                                      witness={"nodes": nodes[0] - 1})
            if all(orthogonal(c, p) for p in chosen):
                yield from extend(chosen + [c])

    return extend([])


@cache
def all_hadamard(order):
    """Every Hadamard matrix of the given order (cached); order <= 4 only.

    The row orders of each set of orthogonal +-1 rows, in lexicographic
    order of their candidate indices.
    """
    if order > _ENUM_CAP:
        raise OrderTooLarge(f"full enumeration capped at order {_ENUM_CAP}")
    if order < 1:
        raise InvalidSpec("order must be positive")
    rows = _weighing_rows(order, order)
    sets = _orthogonal_sets(rows, order, math.inf, [0])
    return tuple(HadamardMatrix(rows[list(p)])
                 for p in sorted(q for s in sets for q in permutations(s)))


@dataclass(frozen=True)
class SearchOutcome:
    """found is None when the space was exhausted without an extension."""

    found: UnbiasedSet | None
    proven_exhausted: bool
    nodes: int
    reason: str | None = None


def search_unbiased_extension(seed, budget=_SEARCH_BUDGET, use_bound=True):
    """Find one matrix, not in the seed set, unbiased with every member.

    Deterministic: the candidate rows are the weight-k rows whose products
    with every seed member lie in sqrt(k) times the alphabet, in
    ``_weighing_rows`` order, and the first set of n orthogonal ones is taken
    in the first row order that is not a seed member.  The rows of any
    extension form such a set, so exhausting the sets is a completeness
    proof.  Raises BudgetExhausted when the node budget runs out; a completed
    scan returns a proven-exhausted outcome instead.
    """
    if budget <= 0:
        raise BudgetExhausted("budget 0 allows no work", witness={"nodes": 0})
    n, k = seed.order, seed.weight
    if use_bound and seed.kind == "hadamard" and n % 2 == 0:
        if len(seed) + 1 > n // 2:
            return SearchOutcome(None, True, 0,
                                 f"size bound: at most {n // 2} mutually unbiased "
                                 f"matrices exist at order {n}")
    s = square_root_or_none(k)
    if s is None:
        return SearchOutcome(None, True, 0,
                             f"{k} is not a perfect square, no unbiased pair exists")
    if n > _ROW_CAP:
        raise OrderTooLarge(f"backtracking search capped at order {_ROW_CAP}")
    cand = _weighing_rows(n, k)
    for S in seed:
        keep = np.isin(int_matmul(cand, S.entries.T), s * np.array(S._alphabet))
        cand = cand[keep.all(axis=1)]
    nodes = [0]
    for rows in _orthogonal_sets(cand, n, budget, nodes):
        # only at weight 1, where a matrix is unbiased with itself, can a
        # row order be a seed member
        for perm in permutations(rows):
            M = cand[list(perm)]
            if not any(np.array_equal(M, S.entries) for S in seed):
                return SearchOutcome(seed.extended(M), False, nodes[0])
    return SearchOutcome(None, True, nodes[0], "enumeration completed")


def gramian_B(uset):
    """B-matrices of a set of regular unbiased Hadamard matrices of order 4n^2.

    The Gramian of {I, H_1/2n, ..., H_m/2n} is kept scaled by 2n so all
    blocks are integral: diagonal blocks 2n I, edge blocks H_i, inner blocks
    H_i H_j^T / 2n.  B drops the diagonal and splits into its positive part
    B1, negative part B2, plus the block-diagonal complement B3.
    """
    if uset.kind != "hadamard":
        raise InvalidSpec("B-matrices are defined for Hadamard sets")
    m = len(uset)
    if m < 2:
        raise InvalidSpec("need at least two matrices")
    order = uset.order
    s = square_root_or_none(order)
    if s is None or s % 2:
        raise NotSquareOrder(f"order must be 4n^2, got {order}")
    n = s // 2
    if n % 2:
        raise OddN(f"no unbiased regular pair exists for odd n = {n}")
    for idx, H in enumerate(uset):
        if not is_regular(H):
            raise NotRegular(f"matrix {idx} is not regular", witness=idx)

    N = order * (m + 1)
    B = np.zeros((N, N), dtype=np.int64)
    mats = [H.entries for H in uset]
    for i in range(m):
        r = (i + 1) * order
        B[0:order, r:r + order] = mats[i].T
        B[r:r + order, 0:order] = mats[i]
        for j in range(m):
            if i == j:
                continue
            c = (j + 1) * order
            prod = int_matmul(mats[i], mats[j].T)
            if (prod % (2 * n)).any():
                raise InternalInconsistency("unbiased product not divisible by 2n")
            B[r:r + order, c:c + order] = prod // (2 * n)
    if not (B == B.T).all() or not ((B >= -1) & (B <= 1)).all():
        raise InternalInconsistency("B must be a symmetric (0,-1,1)-matrix")
    B1 = (B == 1).astype(np.int64)
    B2 = (B == -1).astype(np.int64)
    B3 = kron(np.eye(m + 1, dtype=np.int64), np.ones((order, order), dtype=np.int64))
    B3 -= np.eye(N, dtype=np.int64)
    return B1, B2, B3


def partition_quotients_of_set(uset, partition):
    """Quotient matrices of every member under one shared equitable partition."""
    if partition.size != uset.order:
        raise DimensionMismatch(
            f"partition on {partition.size} points vs order {uset.order}")
    if not partition.equal_cells:
        raise UnequalCells(f"cell sizes {sorted(set(partition.cell_sizes))} differ")
    qs = quotient_matrices(partition, [H.entries for H in uset])
    return list(qs.quotients)


def bush_unbiased_pair_16():
    """A deterministic unbiased pair of order-16 Bush-type Hadamard matrices.

    Rank-one +-1 blocks B_s = h_s^T h_s from the rows of the order-4
    doubling matrix are placed by two Latin squares L(a,b) = a xor b and
    L'(a,b) = tau(a) xor tau(b) with tau a 3-cycle; any two placement rows
    agree in exactly one column, which forces the unbiasedness.
    """
    base = sylvester(2).entries
    blocks = [np.outer(base[s], base[s]) for s in range(4)]
    tau = (1, 2, 0, 3)
    h1 = np.block([[blocks[a ^ b] for b in range(4)] for a in range(4)])
    h2 = np.block([[blocks[tau[a] ^ tau[b]] for b in range(4)] for a in range(4)])
    H1, H2 = HadamardMatrix(h1), HadamardMatrix(h2)
    for H in (H1, H2):
        if not is_bush(H):
            raise InternalInconsistency("constructed matrix is not Bush-type")
    return UnbiasedSet((H1, H2), "hadamard")


def load_bundled(name):
    """Read a matrix shipped inside the package's data directory."""
    from importlib.resources import files

    from .fileio import parse_matrix_text

    text = files("lcdsubspace").joinpath("data", name).read_text(encoding="utf-8")
    return parse_matrix_text(text)
