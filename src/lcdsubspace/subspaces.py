"""Subspaces of F_q^n: canonical bases, duality, distance, LCD tests.

Vectors are rows; a subspace is identified by the reduced row echelon form of
any spanning set, so equality and hashing are structural.  The bilinear form
throughout is the standard dot product u . v = sum_i u_i v_i, and the dual
U^perp is taken with respect to it.

Every rank of a pair of subspaces is one GF.excess_rank, rank [U; W] -
dim U, taken pair by pair: distance, pairwise_lcd (one rank of
[U; W^perp]) and the one LCD routine, dual_meets.  dual_meets walks the
ordered pairs (i, j) of a list of subspaces in lexicographic order and
gives dim(U_i n U_j^perp) for each; it ranks [U_a; U_b^perp] for a <= b
only and answers (b, a) from the same rank, since (U_a + U_b^perp)^perp =
U_a^perp n U_b.  is_lcd and complement_coordinates here, and
is_lcd_subspace_code and classical_lcd_check in codes, read it.  The Gram
determinants of is_lcd and pairwise_lcd are an independent second path;
the meet U & W is the public intersect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    InternalInconsistency,
    NotLCD,
)
from .linalg import as_integer


class Subspace:
    """An immutable subspace of F_q^n held as an rref basis matrix.

    Every Subspace, a dual too, is made from vectors and reduced once, by
    GF.rref.  Over F_2 it keeps the basis packed as well, as the rref ends
    with it: its rows packed into ints in basis order and the echelon table
    that gf._gf2_pivots builds (a list indexed by bit length, 0 where no row
    has that length), so its rows are packed once, when it is made.  Every
    F_2 rank of a stack of subspaces [U; W] starts from a copy of U's table
    and reduces W's packed rows into it, in basis order.  The dual, once
    computed, is kept as a Subspace too, and with it its own table.  The
    hash, structural like equality, is computed on the first hash or
    comparison, so a Subspace that is only ranked never takes it.
    """

    __slots__ = ("field", "n", "basis", "_hash", "_dual", "_echelon")

    def __init__(self, field, n, vectors=None):
        self.field = field
        self.n = as_integer(n, "ambient dimension")
        if self.n < 1:
            raise DimensionMismatch(f"ambient dimension must be at least 1, got {n}")
        if vectors is None:
            vectors = np.zeros((0, self.n), dtype=np.int64)
        # entries outside [0, q) raise in rref, the one range check: they
        # are not field elements, and elimination would make the canonical
        # form depend on row order
        V = field._as_rows(vectors)
        if V.shape[1] != self.n and V.size:
            raise AmbientMismatch(f"vectors of length {V.shape[1]} in ambient {self.n}")
        if V.size == 0:
            V = V.reshape(0, self.n)
        R, piv, self._echelon = field.rref(V, _kept=True)
        B = np.ascontiguousarray(R[: len(piv)], dtype=np.int64)
        B.setflags(write=False)
        self.basis = B
        self._hash = None
        self._dual = None

    # --- constructors ---

    @classmethod
    def span(cls, field, n, vectors):
        return cls(field, n, vectors)

    @classmethod
    def zero(cls, field, n):
        return cls(field, n)

    @classmethod
    def full(cls, field, n):
        return cls.zero(field, n).dual()

    # --- basic structure ---

    @property
    def dim(self):
        return self.basis.shape[0]

    def contains(self, v):
        """Membership test: v lies in U iff adjoining it keeps the rank."""
        w = self.field.asmatrix(np.ravel(v))
        if w.shape[1] != self.n:
            raise AmbientMismatch(f"vector of length {w.shape[1]} in ambient {self.n}")
        return self.field.rank(np.vstack([self.basis, w])) == self.dim

    def echelon(self):
        """Over F_2, (rows, table): the basis rows packed into ints, in basis
        order, and the echelon table gf._gf2_pivots builds from them, a list
        whose entry b is the row of bit length b (0 for none), as the rref
        that made the Subspace ends with them; None on other fields.  Ranks
        copy the table and never change it."""
        return self._echelon

    def _check_mate(self, other):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected Subspace, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if other.n != self.n:
            raise AmbientMismatch(f"ambient {self.n} vs {other.n}")
        return other

    # --- lattice operations ---

    def __add__(self, other):
        other = self._check_mate(other)
        stacked = np.vstack([self.basis, other.basis])
        return Subspace(self.field, self.n, stacked)

    def dual(self):
        """Orthogonal complement under the standard dot product.

        It is made, like every Subspace, from vectors (the kernel basis of
        this basis), computed once and kept, so every call returns the same
        Subspace, and with it its echelon table.
        """
        if self._dual is None:
            B = self.basis
            # the basis is in rref: its pivots are the rows' leading entries
            self._dual = Subspace(self.field, self.n, self.field._kernel_basis(
                B, tuple((B != 0).argmax(1).tolist())))
        return self._dual

    def __and__(self, other):
        other = self._check_mate(other)
        return (self.dual() + other.dual()).dual()

    # --- dunder plumbing ---

    def __eq__(self, other):
        return (isinstance(other, Subspace) and hash(self) == hash(other)
                and self.field == other.field and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        # only the hash is kept: a key of the basis bytes would be a second copy
        if self._hash is None:
            self._hash = hash((self.field.p, self.field.r, self.n, self.dim, self.basis.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Subspace(q={self.field.q}, n={self.n}, dim={self.dim})"


def span(field, n, vectors):
    return Subspace.span(field, n, vectors)


def subspace_sum(U, W):
    return U + W


def intersect(U, W):
    return U & W


def dual(U):
    return U.dual()


def distance(U, W):
    """Subspace distance dim(U+W) - dim(U n W) = 2 dim(U+W) - dim U - dim W.

    dim(U+W) = dim U + e with e = GF.excess_rank(U, W): over F_2, W's
    kept echelon rows reduced into a copy of U's kept table, so neither
    basis is packed again.
    """
    W = U._check_mate(W)
    return U.dim + 2 * U.field.excess_rank(U, W) - W.dim


@dataclass(frozen=True)
class LcdCheck:
    """Outcome of an LCD test: Gram determinant vs radical dimension."""

    ok: bool
    gram_det: int
    radical_dim: int

    def __bool__(self):
        return self.ok


def dual_meets(spaces):
    """((i, j), dim(U_i n U_j^perp)) for every ordered pair of subspaces of
    one ambient space F^n, lazily, in lexicographic order of (i, j).

    Both ordered pairs of {a, b}, a <= b, are read off one excess rank
    e = rank [U_a; U_b^perp] - dim U_a: (a, b) gives dim U_b^perp - e, and
    since (U_a + U_b^perp)^perp = U_a^perp n U_b, (b, a) gives
    n - dim U_a - e.  The rank is taken at (a, b), which comes first, and
    kept for (b, a): s(s + 1)/2 ranks for s subspaces.  U_b^perp is taken
    when the first pair that needs it, (0, b), is ranked, so a caller that
    stops at an early pair pays neither for later ranks nor for later duals.

    The one LCD test: U is LCD iff (U, U) gives 0, and a set of subspaces is
    an LCD subspace code iff every ordered pair, i = j included, does.
    """
    n = spaces[0].n
    field = spaces[0].field
    kept = {}
    for i, U in enumerate(spaces):
        for j, W in enumerate(spaces):
            if i <= j:
                D = W.dual()
                e = kept[i, j] = field.excess_rank(U, D)
                yield (i, j), D.dim - e
            else:
                yield (i, j), n - W.dim - kept.pop((j, i))


def is_lcd(U):
    """True iff U meets U^perp trivially.

    Computed two independent ways (det of the Gram matrix of the basis, and
    the dimension of U n U^perp from dual_meets); a disagreement would be a
    bug and raises.
    """
    f = U.field
    d = f.det(f.matmul(U.basis, U.basis.T))
    (_, radical), = dual_meets([U])
    ok_det = d != 0
    if ok_det != (radical == 0):
        raise InternalInconsistency(
            f"Gram det {d} vs radical dim {radical}", witness=(d, radical))
    return LcdCheck(ok_det, d, radical)


@dataclass(frozen=True)
class PairwiseLcdCheck:
    """ok: both U n W^perp and W n U^perp are zero.

    det_nonsingular reports whether the cross Gram matrix of the two bases is
    nonsingular; it is None when the dimensions differ (no square matrix to
    test), and equals ok otherwise.
    """

    ok: bool
    det_nonsingular: bool | None

    def __bool__(self):
        return self.ok


def pairwise_lcd(U, W):
    """Whether U n W^perp and W n U^perp are both zero.

    Each has dimension at least the excess of one dimension over the other,
    so both are zero only when dim U = dim W.  Then (U + W^perp)^perp =
    U^perp n W, so both are zero iff [U; W^perp] has rank n: one excess
    rank.
    """
    W = U._check_mate(W)
    if U.dim != W.dim:
        return PairwiseLcdCheck(False, None)
    f = U.field
    ok = U.dim + f.excess_rank(U, W.dual()) == U.n
    return PairwiseLcdCheck(ok, f.det(f.matmul(W.basis, U.basis.T)) != 0)


def complement_coordinates(U):
    """(Q, W): W is the rref basis of U^perp and Q the last n - dim U columns
    of [U; W]^-1, so v Q holds the coordinates on W of the projection of v
    onto U^perp along U.

    Exists iff U is LCD (the ambient space splits as U + U^perp).  Q is the
    one solution of U Q = 0 and W Q = I, so it is W^T G^-1 with G = W W^T:
    U W^T = 0, and the Gram matrix G is invertible iff W, and so U, is LCD.
    G is symmetric, so Q^T = G^-1 W, the right block of rref [G | W]: one
    elimination of n - dim U rows, where [U; W]^-1 takes n.
    """
    (_, radical), = dual_meets([U])
    if radical:
        raise NotLCD(f"subspace meets its dual in dimension {radical}")
    f = U.field
    W = U.dual().basis     # kept by dual_meets
    R, _ = f.rref(np.hstack([f.matmul(W, W.T), W]))
    return R[:, len(W):].T, W


def projector_complement(U):
    """Matrix P with v P = projection of v onto U^perp along U.

    Exists iff U is LCD; P = Q W from complement_coordinates, is idempotent,
    kills U and fixes U^perp pointwise.
    """
    Q, W = complement_coordinates(U)
    return U.field.matmul(Q, W)
