"""Subspace codes, minimum distance, and the two decoders.

A subspace code is a finite set of subspaces of one ambient F_q^n.  The
minimum-distance decoder returns the unique closest codeword or "failure" on
a tie.  For codes whose members are all LCD, decoding can instead project the
received generators onto each codeword's complement:

    d(C_i, R) = dim C_i + 2 dim(span of R's generators projected onto
                C_i^perp) - dim R

which agrees with the naive decoder everywhere, received subspace by received
subspace, not just in expectation.  Both decoders write the distance as
d(C_i, R) = dim C_i + 2 e_i - dim R, with e_i the rank of block i of R Q
(projection) or rank [C_i; R] - dim C_i (naive): the rank-metric view of
Silva, Kschischang and Koetter (IEEE T-IT 2008).

A decode returns only the minimum distance and whether one codeword alone
attains it.  Inside the module a verdict is the pair (index, distance),
index -1 for a tie, and a batch's verdicts are two int64 arrays: both
decisions return them, and only the public decode, decode_many,
decode_naive and decode_naive_many build DecodeOutcome objects from them.
Both batched decoders take one branch, by one rule, GF.stacked(n): where
the field ranks a whole stack of matrices of n columns at once (every
field but F_2, and F_2 up to n = 8, on one word per row), each decoder
computes every e_i of every word of the batch exactly, in one stack, and
_verdicts reads the verdicts of all words in one numpy pass.  On F_2 past
n = 8 they take their verdicts from one routine, _bounded_verdict, which
asks each e_i only as far as the verdict needs, through a capped rank
min(e_i, cap) that runs a lazy scan of packed rows, in one loop over
doubling distance bounds: a codeword's elimination so stops once its
distance is known to exceed a bound that some codeword is within.  The
rule is on n because a whole stack of F_2 words costs a few numpy calls
per column (off F_2, per row), for the whole batch, while each scan is
Python per row and per word, and a bounded scan only saves rows on wide
codes: on a 4-column code every scan reads every row anyway.  Measured on random GF(2) LCD codes
(see gf), both decoders run about ten times faster on words than by lazy
scans at n = 4 and at n = 8.  decode_naive stays the unbounded reference.

A batch of received words reaches both batched decoders in one format, a
stack of their generator rows (T x h x n), zero-padded to one height, and
one preparer, _received_stack, builds it, checking each word once.  The
two decoders are then each a decision on that stack (_decide_naive and
ProjectionDecoder._decide), and the simulator, which draws its words as
such a stack already, hands the same stack to both.  They share only that
format and the verdict code: naive decoding ranks [C_i; R], projection
decoding the blocks of R Q.

The minimum distance of params (and of sampled_min_distance) comes from the
same idea: one scan over the pairs, d(C_i, C_j) = dim C_i + 2 e - dim C_j
with e = rank [C_i; C_j] - dim C_i, where each pair's rank is capped at the
least e that cannot beat the best distance so far (GF.excess_rank with a
cap).  Over F_2 a pair's reduction so stops after a few rows once a close
pair is known; every other field ranks each pair exactly and caps it.

Whether a code is LCD (is_lcd_subspace_code), and whether a classical
generator matrix is (classical_lcd_check), is read from the one LCD routine,
subspaces.dual_meets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    AmbientMismatch,
    DegenerateCode,
    EmptyCode,
    FieldMismatch,
    InvalidSpec,
    NotLCDCode,
    PairBudgetExceeded,
    RankDeficient,
)
from .gf import BlockRankFactor, padded_stack
from .linalg import as_integer
from .subspaces import Subspace, complement_coordinates, distance, dual_meets, is_lcd

PAIR_BUDGET = 10 ** 7


class SubspaceCode:
    """Deduplicated, canonically ordered tuple of codeword subspaces."""

    __slots__ = ("field", "n", "codewords", "_lcd", "_decoder")

    def __init__(self, codewords):
        words = list(codewords)
        if not words:
            raise EmptyCode("a subspace code needs at least one codeword")
        first = words[0]
        for w in words[1:]:
            if w.field != first.field:
                raise FieldMismatch("codewords over different fields")
            if w.n != first.n:
                raise AmbientMismatch("codewords in different ambient spaces")
        # the canonical order: by dimension, then by the bytes of the basis
        self.codewords = tuple(sorted(dict.fromkeys(words),
                                      key=lambda w: (w.dim, w.basis.tobytes())))
        self.field = first.field
        self.n = first.n
        self._lcd = None
        self._decoder = None

    def __len__(self):
        return len(self.codewords)

    def __iter__(self):
        return iter(self.codewords)

    def __getitem__(self, i):
        return self.codewords[i]

    def __eq__(self, other):
        return isinstance(other, SubspaceCode) and self.codewords == other.codewords

    def __hash__(self):
        return hash(self.codewords)

    @property
    def dims(self):
        return tuple(sorted({w.dim for w in self.codewords}))

    def __repr__(self):
        return f"SubspaceCode(q={self.field.q}, n={self.n}, size={len(self)})"


@dataclass(frozen=True)
class CodeParams:
    """(n, size, d; K)_q summary; d is None for a single-codeword code."""

    n: int
    size: int
    d: int | None
    dims: tuple
    q: int
    constant_dimension: bool


def params(code, *, pair_budget=PAIR_BUDGET, allow_degenerate=False):
    """Exhaustive parameter computation.

    d is the least distance over all s(s - 1)/2 pairs, from _min_distance's
    one bounded scan: every pair is visited, but each pair's rank only up
    to the cap where it could no longer beat the best distance found so far.
    Raises DegenerateCode for size-1 codes unless allow_degenerate, in which
    case d is reported as None.  Raises PairBudgetExceeded when the exhaustive
    pair scan would be too large; see sampled_min_distance for the honest
    fallback.
    """
    pair_budget = as_integer(pair_budget, "pair_budget")
    s = len(code)
    if s == 1 and not allow_degenerate:
        raise DegenerateCode("minimum distance undefined for one codeword")
    d = None
    if s > 1:
        npairs = s * (s - 1) // 2
        if npairs > pair_budget:
            raise PairBudgetExceeded(f"{npairs} pairs exceed budget {pair_budget}")
        d = _min_distance(code, combinations(range(s), 2))
    dims = code.dims
    return CodeParams(code.n, s, d, dims, code.field.q, len(dims) == 1)


def sampled_min_distance(code, samples=10 ** 4, seed=0):
    """Upper bound on d from random codeword pairs (non-exhaustive)."""
    samples = as_integer(samples, "the number of samples")
    if samples < 1:
        raise InvalidSpec(f"sampled_min_distance needs at least one sample, got {samples}")
    s = len(code)
    if s < 2:
        raise DegenerateCode("minimum distance undefined for one codeword")
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        i = rng.randrange(s)
        j = rng.randrange(s - 1)
        pairs.append((i, j + (j >= i)))
    return _min_distance(code, pairs)


def _min_distance(code, pairs):
    """The least distance d(C_i, C_j) over (i, j) in pairs, None for none,
    by one bounded scan: every pair is visited, each only as far as it can
    still beat the best so far.

    d(C_i, C_j) = dim C_i + 2 e - dim C_j with e = rank [C_i; C_j] - dim C_i,
    so the pair beats best iff e < (best - dim C_i + dim C_j + 1) // 2, the
    cap GF.excess_rank(C_i, C_j, cap) is asked at; a pair whose cap is 0 or
    less is not asked.  The first pair is asked at a cap above dim C_j,
    which e never reaches, so it is exact.
    """
    words = code.codewords
    best = None
    for i, j in pairs:
        U, W = words[i], words[j]
        cap = W.dim + 1 if best is None else (best - U.dim + W.dim + 1) // 2
        if cap > 0:
            e = code.field.excess_rank(U, W, cap)
            if e < cap:
                best = U.dim + 2 * e - W.dim
    return best


@dataclass(frozen=True)
class LcdCodeCheck:
    """ok iff C_i n C_j^perp = 0 for every ordered pair (i, j).

    The s^2 ordered pairs of s codewords take at most s(s + 1)/2 excess
    ranks of [C_a; C_b^perp], a <= b: since (C_a + C_b^perp)^perp =
    C_a^perp n C_b, one rank settles both (a, b) and (b, a)
    (subspaces.dual_meets).  witness is the first failing ordered pair.
    """

    ok: bool
    witness: tuple | None

    def __bool__(self):
        return self.ok


def is_lcd_subspace_code(code):
    """Direct defining check over all ordered pairs, including i = j: the
    dimensions dim(C_i n C_j^perp) of subspaces.dual_meets.

    The ordered pairs are walked in lexicographic order, so the ranks
    [C_a; C_b^perp] are taken for the pairs a <= b only, in lexicographic
    order, s(s + 1)/2 of them for s codewords: (b, a) is read off the rank
    of (a, b) taken before it, through (C_a + C_b^perp)^perp =
    C_a^perp n C_b.  Witness is the first (lowest-index) violating ordered
    pair, where the walk stops, before any later rank or dual is taken.
    The result is cached on the code object.
    """
    if code._lcd is not None:
        return code._lcd
    witness = next((pair for pair, meet in dual_meets(code.codewords) if meet), None)
    code._lcd = LcdCodeCheck(witness is None, witness)
    return code._lcd


@dataclass(frozen=True)
class DecodeOutcome:
    """status is 'decoded' (with codeword index) or 'failure' (tie)."""

    status: str
    index: int | None
    distance: int

    @property
    def decoded(self):
        return self.status == "decoded"


def _received_rows(code, received):
    """Generator rows of a received word, checked against the code: the
    field of a Subspace and the ambient length.  Raw rows are range-checked
    once, where the decoders' ranks or rref take them."""
    if isinstance(received, Subspace):
        if received.field != code.field:
            raise FieldMismatch("received word over a different field")
        rows = received.basis
    else:
        rows = code.field._as_rows(received)
        if rows.size == 0:
            rows = rows.reshape(0, code.n)
    if rows.shape[1] != code.n:
        raise AmbientMismatch("received word in a different ambient space")
    return rows


def _received_stack(code, words):
    """The received words, any mix of Subspaces and generator rows, as one
    stack (T x h x n): each word checked once by _received_rows and padded
    with zero rows to the greatest height h, which changes no span.  It is
    the one input of both batched decisions, whose rank forms check its
    entries' range."""
    rows = [_received_rows(code, w) for w in words]
    return padded_stack(rows) if rows else np.zeros((0, 0, code.n), dtype=np.int64)


def _verdict(dists):
    """(index, distance) of the one codeword at the least of the distances,
    index -1 on a tie."""
    dmin = min(dists)
    return (dists.index(dmin) if dists.count(dmin) == 1 else -1), dmin


def _verdicts(dims, dim, E):
    """_verdict of every word t at once, from exact ranks, as two int64
    arrays (index, distance): the distances D[t, i] = dims[i] + 2 E[t, i] -
    dim[t] of arrays dim (T) and E (T x N)."""
    D = np.asarray(dims, dtype=np.int64) + 2 * E - dim[:, None]
    best = D.min(1)
    alone = np.count_nonzero(D == best[:, None], axis=1) == 1
    return np.where(alone, D.argmin(1), -1), best


def _outcome(index, distance):
    """The DecodeOutcome of one verdict (index, distance)."""
    if index < 0:
        return DecodeOutcome("failure", None, distance)
    return DecodeOutcome("decoded", index, distance)


def _outcomes(index, distance):
    """The DecodeOutcome of every verdict of the arrays (index, distance)."""
    return list(map(_outcome, index.tolist(), distance.tolist()))


def _bounded_verdict(dim, dims, rank):
    """_verdict of the distances d_i = dims[i] + 2 e_i - dim, with each e_i
    taken only as far as the verdict needs it, from the capped rank
    rank(i, cap) = min(e_i, cap), which goes on with block i's own scan.

    One loop over the distance bounds D = min(dims) + 2t - 1 - dim, for
    t = 2, 4, 8, ...: block i is asked at the cap (D - dims[i] + dim) // 2 +
    1, the least e_i with d_i > D, and not at all while that cap is not
    positive, as then d_i > D whatever e_i is.  The loop stops at the first
    bound that some block comes in below its cap: those blocks' distances
    are exact and at most D, and every other one is above D, which leaves
    the minimum and its ties, and so the verdict, as the exact distances
    give them.  When every dims[i] is the same, as in an LCD code, every
    cap is t.  The driver needs no more of rank than that, so exact ranks,
    capped, serve too.
    """
    low = min(dims)
    t = 2
    while True:
        caps = [(low + 2 * t - 1 - k) // 2 + 1 for k in dims]
        found = [rank(i, cap) if cap > 0 else 0 for i, cap in enumerate(caps)]
        if any(e < cap for e, cap in zip(found, caps)):
            return _verdict([k + 2 * e - dim for k, e in zip(dims, found)])
        t *= 2


def _bounded_verdicts(dims, capped):
    """_bounded_verdict of every (dim, rank) of capped, as _verdicts' arrays
    (index, distance)."""
    V = np.array([_bounded_verdict(dim, dims, rank) for dim, rank in capped], dtype=np.int64)
    return tuple(V.reshape(-1, 2).T)


def decode_naive(code, received):
    """Minimum-distance decoding by direct subspace distances.

    One word at a time, by the definition: raw rows are canonicalised into
    a Subspace and each distance d(C_i, R) is taken on its own, exactly.
    It is the reference that decode_naive_many, its batched form, is tested
    against.  Over F_2 each distance reduces R's packed rows into a copy of
    C_i's echelon table (subspaces.distance); each codeword builds its table
    on first use and keeps it, and R builds its own once per word.
    """
    rows = _received_rows(code, received)
    R = received if isinstance(received, Subspace) else Subspace(code.field, code.n, rows)
    return _outcome(*_verdict([distance(w, R) for w in code]))


def decode_naive_many(code, words):
    """decode_naive of each received word (a Subspace or generator rows),
    for many words at once.

    d(C_i, R) = 2 rank [C_i; R] - dim C_i - dim R, which depends on the span
    of R alone, so raw rows need no canonical form first.  Where the field
    ranks a whole stack of n columns at once (GF.stacked: every field but
    F_2, and F_2 up to n = 8), GF.excess_ranks ranks every stack [C_i; R] of
    the batch at once and _verdicts reads the exact e_i = rank [C_i; R] -
    dim C_i of all words in one pass.  On wider F_2 codes the capped ranks
    min(e_i, cap) of GF.capped_stack_ranks feed _bounded_verdict: each
    codeword's echelon table is the one its Subspace keeps from its first
    use, so no codeword is packed again on later calls; each word is
    reduced once to an echelon set of its own, and e_i counted, row by row
    of that set into a copy of C_i's table, only as far as the verdict asks.
    """
    return _outcomes(*_decide_naive(code, _received_stack(code, words)))


def _decide_naive(code, stack):
    """decode_naive_many's verdicts on a stack of received words, as
    _received_stack builds it (or the simulator draws it), as the arrays
    (index, distance) of _verdicts."""
    dims = [w.dim for w in code]
    f = code.field
    if f.stacked(code.n):
        return _verdicts(dims, *f.excess_ranks(code.codewords, stack))
    return _bounded_verdicts(dims, f.capped_stack_ranks(code.codewords, stack))


class ProjectionDecoder:
    """Precomputes the complement coordinates of every codeword.

    For codeword C_i with complement coordinates Q_i and W_i (see
    subspaces.complement_coordinates) the projector is P_i = Q_i W_i, and
    W_i has full row rank, so rank(R P_i) = rank(R Q_i) = e_i and
    d(C_i, R) = dim C_i + 2 e_i - dim R.  The Q_i are stacked once into
    Q = [Q_1 | ... | Q_N] (n x sum(n - dim C_i)) and prepared as a
    gf.BlockRankFactor (over F_2, its Four-Russians tables), and each
    received word costs one product R Q and the ranks of its column blocks.
    Where the field ranks a whole stack of n columns at once (GF.stacked:
    every field but F_2, and F_2 up to n = 8), decode_many takes one product
    (R_1; ...; R_T) Q for all its words, ranks every block of every word
    exactly, in one stack (BlockRankFactor.block_ranks), and reads the
    verdicts in one pass (_verdicts).  On wider F_2 codes the blocks' ranks
    are capped and asked for by _bounded_verdict, so each block's echelon
    scan runs only as far as the verdict needs it to settle the minimum
    distance and its ties.

    rank(R Q_i) is the dimension of the image of span(R) under x -> x Q_i,
    so it depends only on the span of the rows: any spanning set gives the
    same ranks, an echelon set over F_2 and the rows as given elsewhere.

    Requires the code to pass is_lcd_subspace_code (every codeword is then
    LCD, so the Q_i exist).
    """

    def __init__(self, code):
        check = is_lcd_subspace_code(code)
        if not check.ok:
            raise NotLCDCode("projection decoding needs an LCD subspace code",
                             witness=check.witness)
        self.code = code
        blocks = [complement_coordinates(w)[0] for w in code]
        self.coordinates = np.hstack(blocks)
        self._factor = BlockRankFactor(code.field, self.coordinates,
                                       [b.shape[1] for b in blocks])

    def decode(self, received):
        return self.decode_many([received])[0]

    def decode_many(self, words):
        """decode() of each received word (a Subspace or generator rows), with
        one factor call for all and one verdict pass for all (a bounded
        verdict per word on F_2 past n = 8)."""
        return _outcomes(*self._decide(_received_stack(self.code, words)))

    def _decide(self, stack):
        """decode_many's verdicts on a stack of received words, as
        _received_stack builds it (or the simulator draws it), as the arrays
        (index, distance) of _verdicts."""
        code = self.code
        dims = [w.dim for w in code]
        if code.field.stacked(code.n):
            return _verdicts(dims, *self._factor.block_ranks(stack))
        return _bounded_verdicts(dims, self._factor.capped(stack))


def projection_decoder(code):
    """The code's ProjectionDecoder, built on first use and cached on the code."""
    if code._decoder is None:
        code._decoder = ProjectionDecoder(code)
    return code._decoder


def decode_projection(code, received):
    """Projection decoding with the code's cached decoder."""
    return projection_decoder(code).decode(received)


def classical_lcd_check(field, G):
    """True iff the row space of G is LCD, by is_lcd: its verdict is the Gram
    determinant of the row space's rref basis, nonzero iff det(G G^T) is.

    G must have full row rank (RankDeficient otherwise), so the verdict is
    about the code, not about a redundant generator presentation.
    """
    G = field.asmatrix(G)
    if field.rank(G) != G.shape[0]:
        raise RankDeficient(f"rank {field.rank(G)} < {G.shape[0]} rows")
    return is_lcd(Subspace(field, G.shape[1], G)).ok
