"""Hadamard and weighing matrices: validation, unbiased pairs, small search.

Everything is exact integer arithmetic.  A pair is unbiased when the product
A B^T is sqrt(n) (resp sqrt(k)) times another valid matrix of the same kind;
the quotient is returned as a witness.  The search for an extension of an
unbiased set backtracks over candidate rows in a fixed order so results are
reproducible, counts every candidate it touches against a node budget, and
distinguishes "budget ran out" from "search space exhausted".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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


class HadamardMatrix:
    """Order-n matrix with entries +-1 and H H^T = n I (checked)."""

    __slots__ = ("order", "entries")

    def __init__(self, entries):
        M = as_int_matrix(entries)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {M.shape}")
        if not ((M == 1) | (M == -1)).all():
            bad = np.argwhere((M != 1) & (M != -1))[0]
            raise BadAlphabet(f"entry at {tuple(bad)} is not +-1",
                              witness=tuple(int(v) for v in bad))
        n = M.shape[0]
        for G in (int_matmul(M, M.T), int_matmul(M.T, M)):
            if not (G == n * np.eye(n, dtype=np.int64)).all():
                bad = np.argwhere(G != n * np.eye(n, dtype=np.int64))[0]
                raise GramFailure(f"Gram condition fails at {tuple(bad)}",
                                  witness=tuple(int(v) for v in bad))
        M = M.copy()
        M.setflags(write=False)
        self.order = n
        self.entries = M

    def __eq__(self, other):
        return (isinstance(other, HadamardMatrix)
                and self.entries.tobytes() == other.entries.tobytes())

    def __hash__(self):
        return hash((self.order, self.entries.tobytes()))

    def __repr__(self):
        return f"HadamardMatrix(order={self.order})"


class WeighingMatrix:
    """Order-n matrix over {-1,0,1} with W W^T = k I and weight-k rows."""

    __slots__ = ("order", "weight", "entries")

    def __init__(self, entries, weight=None):
        M = as_int_matrix(entries)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {M.shape}")
        if not ((M == 1) | (M == -1) | (M == 0)).all():
            bad = np.argwhere((M != 1) & (M != -1) & (M != 0))[0]
            raise BadAlphabet(f"entry at {tuple(bad)} is not in {{-1,0,1}}",
                              witness=tuple(int(v) for v in bad))
        n = M.shape[0]
        k = int((M[0] != 0).sum()) if weight is None else int(weight)
        for G in (int_matmul(M, M.T), int_matmul(M.T, M)):
            if not (G == k * np.eye(n, dtype=np.int64)).all():
                bad = np.argwhere(G != k * np.eye(n, dtype=np.int64))[0]
                raise GramFailure(
                    f"weighing Gram condition fails at {tuple(bad)} for weight {k}",
                    witness=tuple(int(v) for v in bad))
        # Gram diagonal equals the per-row nonzero count, so rows now have
        # weight k; columns follow from the transpose check.
        self.order = n
        self.weight = k
        M = M.copy()
        M.setflags(write=False)
        self.entries = M

    def __eq__(self, other):
        return (isinstance(other, WeighingMatrix)
                and self.weight == other.weight
                and self.entries.tobytes() == other.entries.tobytes())

    def __hash__(self):
        return hash((self.order, self.weight, self.entries.tobytes()))

    def __repr__(self):
        return f"WeighingMatrix(order={self.order}, weight={self.weight})"


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
    """Check A B^T = sqrt(base) * (matrix of the same kind); quotient witness.

    Non-square base cannot support unbiasedness; reported as a false result
    with an explanatory witness rather than an error.
    """
    if type(a) is not type(b) or a.order != b.order:
        raise DimensionMismatch("matrices must share kind and order")
    if isinstance(a, WeighingMatrix):
        if a.weight != b.weight:
            raise DimensionMismatch("weighing matrices must share weight")
        base = a.weight
    else:
        base = a.order
    s = square_root_or_none(base)
    if s is None:
        return UnbiasedCheck(False, None, {
            "reason": f"{base} is not a perfect square so no integer sqrt exists"})
    D = int_matmul(a.entries, b.entries.T)
    if isinstance(a, HadamardMatrix):
        bad = np.abs(D) != s
    else:
        bad = (D != 0) & (np.abs(D) != s)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return UnbiasedCheck(False, None, {
            "entry": (int(i), int(j)), "value": int(D[i, j]), "expected": s})
    Q = D // s
    if isinstance(a, HadamardMatrix):
        quotient = HadamardMatrix(Q)
    else:
        quotient = WeighingMatrix(Q, a.weight)
    return UnbiasedCheck(True, quotient, None)


class UnbiasedSet:
    """Pairwise unbiased Hadamard or weighing matrices of one order."""

    __slots__ = ("kind", "matrices", "order", "weight")

    def __init__(self, matrices, kind="hadamard", weight=None):
        typed = []
        for M in matrices:
            if isinstance(M, (HadamardMatrix, WeighingMatrix)):
                typed.append(M)
            else:
                typed.append(validate(M, kind, weight))
        if not typed:
            raise InvalidSpec("an unbiased set needs at least one matrix")
        self.kind = kind
        self.matrices = tuple(typed)
        self.order = typed[0].order
        self.weight = typed[0].weight if kind == "weighing" else None
        for i in range(len(typed)):
            for j in range(i + 1, len(typed)):
                check = are_unbiased(typed[i], typed[j])
                if not check.ok:
                    raise NotUnbiased(f"matrices {i} and {j} are not unbiased",
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


_ALL_HADAMARD_CACHE = {}


def all_hadamard(order):
    """Every Hadamard matrix of the given order (cached); order <= 4 only."""
    if order > _ENUM_CAP:
        raise OrderTooLarge(f"full enumeration capped at order {_ENUM_CAP}")
    if order < 1:
        raise InvalidSpec("order must be positive")
    if order in _ALL_HADAMARD_CACHE:
        return _ALL_HADAMARD_CACHE[order]
    rows = _pm_rows(order)
    gram = int_matmul(rows, rows.T)
    found = []

    def extend(chosen):
        if len(chosen) == order:
            found.append(HadamardMatrix(rows[chosen]))
            return
        for c in range(rows.shape[0]):
            if all(gram[c, prev] == 0 for prev in chosen):
                extend(chosen + [c])

    extend([])
    _ALL_HADAMARD_CACHE[order] = tuple(found)
    return _ALL_HADAMARD_CACHE[order]


def _pm_rows(n):
    """All +-1 rows of length n, ordered by the bit pattern (0 bit -> +1)."""
    masks = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (masks[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int64)


def _weighing_rows(n, k):
    """All weight-k rows over {-1,0,1}: supports in combination order, then signs."""
    total = math.comb(n, k) * (1 << k)
    if total > _WEIGHING_CAND_CAP:
        raise OrderTooLarge(
            f"{total} candidate rows exceed the cap of {_WEIGHING_CAND_CAP}")
    signs = _pm_rows(k)
    out = np.zeros((total, n), dtype=np.int64)
    at = 0
    for support in combinations(range(n), k):
        out[at:at + signs.shape[0], support] = signs
        at += signs.shape[0]
    return out


@dataclass(frozen=True)
class SearchOutcome:
    """found is None when the space was exhausted without an extension."""

    found: UnbiasedSet | None
    proven_exhausted: bool
    nodes: int
    reason: str | None = None


def search_unbiased_extension(seed, budget=_SEARCH_BUDGET, use_bound=True):
    """Find one matrix unbiased with every member of the seed set.

    Deterministic: candidate rows in fixed order, rows chosen with strictly
    increasing candidate index (any valid matrix has a row-sorted
    representative, so exhausting sorted choices is a completeness proof).
    Raises BudgetExhausted when the node budget runs out; a completed scan
    returns a proven-exhausted outcome instead.
    """
    if budget <= 0:
        raise BudgetExhausted("budget 0 allows no work", witness={"nodes": 0})
    n = seed.order
    base = n if seed.kind == "hadamard" else seed.weight
    if use_bound and seed.kind == "hadamard" and n % 2 == 0:
        if len(seed) + 1 > n // 2:
            return SearchOutcome(None, True, 0,
                                 f"size bound: at most {n // 2} mutually unbiased "
                                 f"matrices exist at order {n}")
    s = square_root_or_none(base)
    if s is None:
        return SearchOutcome(None, True, 0,
                             f"{base} is not a perfect square, no unbiased pair exists")

    nodes = 0
    if seed.kind == "hadamard" and n <= _ENUM_CAP:
        for M in all_hadamard(n):
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted("node budget exhausted",
                                      witness={"nodes": nodes - 1})
            if all(are_unbiased(M, S).ok for S in seed):
                return SearchOutcome(seed.extended(M), False, nodes)
        return SearchOutcome(None, True, nodes, "enumeration completed")

    if n > _ROW_CAP:
        raise OrderTooLarge(f"backtracking search capped at order {_ROW_CAP}")
    if seed.kind == "hadamard":
        cand = _pm_rows(n)
    else:
        cand = _weighing_rows(n, seed.weight)
    for S in seed:
        D = int_matmul(cand, S.entries.T)
        if seed.kind == "hadamard":
            keep = (np.abs(D) == s).all(axis=1)
        else:
            keep = ((D == 0) | (np.abs(D) == s)).all(axis=1)
        cand = cand[keep]
    K = cand.shape[0]
    gram = int_matmul(cand, cand.T) if 0 < K <= 4096 else None

    counter = {"nodes": 0}

    def orthogonal(c, chosen):
        if gram is not None:
            return all(gram[c, p] == 0 for p in chosen)
        return all(int(cand[c] @ cand[p]) == 0 for p in chosen)

    def extend(chosen):
        start = chosen[-1] + 1 if chosen else 0
        for c in range(start, K):
            counter["nodes"] += 1
            if counter["nodes"] > budget:
                raise BudgetExhausted("node budget exhausted",
                                      witness={"nodes": counter["nodes"] - 1})
            if not orthogonal(c, chosen):
                continue
            chosen.append(c)
            if len(chosen) == n:
                return True
            if extend(chosen):
                return True
            chosen.pop()
        return False

    chosen = []
    if extend(chosen):
        new = validate(cand[chosen], seed.kind, seed.weight)
        return SearchOutcome(seed.extended(new), False, counter["nodes"])
    return SearchOutcome(None, True, counter["nodes"], "enumeration completed")


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
