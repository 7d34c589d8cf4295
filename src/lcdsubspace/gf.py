"""Exact arithmetic in F_{p^r} and dense linear algebra over it.

An element with polynomial coordinates (c_0, ..., c_{r-1}) over F_p is encoded
as the integer sum(c_i * p**i), so elements of F_q live in range(q).  The
modulus is the lexicographically smallest monic irreducible polynomial of
degree r over F_p, coefficients compared constant term first; a field is
therefore determined by (p, r) alone and encodings are stable across runs.
For the common small cases this picks

    F_4 : x^2 + x + 1          F_8 : x^3 + x^2 + 1
    F_9 : x^2 + 1              F_16: x^4 + x^3 + 1

Matrices over F_q are plain numpy int64 arrays of encoded values; all matrix
routines live on the field object (``f.matmul``, ``f.rref``, ...).  Every
field, of every order, keeps one pair of log/antilog tables, built on first
use.  They hold the powers of the smallest primitive element g, and
``log[0]`` is a sentinel past every sum of two nonzero logs with ``exp``
zero from there on, so an extension-field product, zero included, is the
single gather ``exp[log[a] + log[b]]``, and an inverse on every field is
``exp[q - 1 - log[a]]``; a product over F_p is (a b) mod p.  The powers are
built by doubling through the matrix of multiplication by b, which is
F_p-linear: row i of M_b holds the digits of x^i b (the regular
representation of F_{p^r} over F_p; Lidl and Niederreiter, *Finite Fields*,
ch. 2).  ``_shifts`` builds M_b in r - 1 vectorised steps, each shifting the
last row up one digit and adding its top digit times the modulus tail, so
the reduction by the modulus is built in, and a b sums a's digit i times
row i of M_b, mod p.  The powers are written into exp in place, at most
2**14 of them per step, so the build makes no digit array of all q
elements: at 2**20 the tables keep 40 MiB.

A matrix product over F_p runs through float BLAS whenever every partial
sum, at most inner_dim * (p - 1)**2, is an integer the float type holds
exactly whatever the summation order: float32 below 2**24, float64 below
2**53.  Past 2**53 it is an int64 product, which numpy computes without
BLAS.  ``linalg.exact_product`` makes that choice, for ``int_matmul`` too.
A matrix product over F_{p^r} is one such product over F_p, of
inner dimension k r: digits(AB) = digits(A) M_B, where M_B is the (k r x n r)
block matrix of the M_b of B's entries, or, as ab = ba, M_A digits(B).  The
operand with fewer entries is the one expanded, so the extra memory is at
most r**2 times the smaller operand.  The result is reduced mod p (``& 1``
when p = 2, and C - C // p * p for odd p, since a floor division by a
scalar is faster than numpy's int64 ``%``), so every product is exact.
``matmul`` rejects entries outside [0, q), and entries that are not
integers, with ``EncodingOutOfRange``.

A right factor B multiplied by many row sets, as the projection decoder
multiplies every received word by the same complement coordinates, is
prepared once as a ``BlockRankFactor`` with the widths of its column blocks.
Both of its rank forms take the row sets as one stack (T x h x rows of B),
zero-padded to one height, as ``codes`` builds it for a batch of received
words.  ``block_ranks`` returns the rank of every row set and of every
block of its product, exactly, as arrays: one ``matmul`` of the stack and
one ``ranks`` stack of every row set beside every column block of its
product.  ``capped``, over F_2 only, returns per row set the rank of the
rows and a capped rank rank(i, cap) = min(rank of block i of rows B, cap).
Over F_2, when the factor is built, each row of B is packed into one Python
int, column c in bit c, and every 8 rows of B get one 256-entry table of
the XORs of their subsets (the Four-Russians method, M4RM: Albrecht, Bard and Hart,
ACM TOMS 2010).  A call reduces the rows to an echelon set, reads each as
ceil(n / 8) bytes and XORs one table entry per byte into a packed product
row.  Block i's rows are shifted and masked lazily, one product row at a
time, and reduced into an echelon table of the block's own until cap of
them add a pivot, and a later call with a higher cap goes on from there.  A
decoder that needs a block's rank only up to a bound (``codes``) so never
reads the rest of that block.
Python ints, not uint64 arrays, hold the tables: a product row is then a
few dozen XORs with no conversion, faster than numpy gathers both for the
95 rows of a (192, 31, 4; 96) decode and for a handful of rows.
``nonzero_blocks(M)`` tells, on every field, which column blocks of M B
are nonzero: over F_2 the product rows of M come off the same table loop,
are ORed into one int and masked per block, and other fields multiply M by
the kept B.  The product identity check of ``constructions``, X_i X_j^T = 0,
prepares one factor over the blocks X_j^T side by side and reads which of
them fail, so the packed layout stays inside this module.  Other fields
have no capped form, and ``capped`` raises ``FieldMismatch`` there: the
decoders rank every block off F_2 exactly.  The factor keeps B only where
``block_ranks`` reads it (see the rule below), on every field where
``nonzero_blocks`` reads it too: on F_2 past 8 rows of B, as for the
96 x 2976 product-identity factor of the (192, 31, 4; 96) code, 2.3 MB of
int64, it keeps the tables alone.

Which elimination ranks a matrix of n columns is one rule, ``stacked(n)``:
a whole stack at once on every field but F_2, by the stacked core below,
and on F_2 up to n = 8, on one uint64 word per row; rows packed into
Python ints, one matrix at a time, on F_2 past that.  A whole stack costs
a fixed number of numpy calls per row (per column on F_2 words), whatever
its size, while a packed reduction is Python per row and per matrix, and a
capped scan saves rows only on wide matrices.  On
random GF(2) LCD codes of 3 codewords of dimension n / 2, decoding 200
words of one erasure and one error (2 cores, CPython 3.11, NumPy 2.4, two
rounds), naive decoding took per word 0.8-1.0 us on words against 9.7-13
us by lazy scans at n = 4 and 1.4-2.4 against 9.7-16 us at n = 8, and
projection decoding 0.7-1.0 against 8.1-14 us at n = 4 and 1.1-2.0
against 18-20 us at n = 8.  ``ranks`` and the decoders (``codes``) follow
the rule; ``rank``, ``rref``, ``det`` and the kept echelon tables of
Subspaces stay packed into ints over F_2 at any width.

Elimination over F_2 on packed rows packs each row into one Python int,
column 0 in the highest bit, so adding two rows is one XOR of arbitrary
width.  Rows are reduced into an echelon table, a flat list of
8 ceil(n / 8) + 1 entries indexed by bit length: entry b holds the row whose
bit length is b, and 0 means no row, so each step of a reduction is one list
index.  ``_gf2_pivots`` reduces rows into a table in place and returns the
number of pivots they add: ``rank`` stops there, ``rref`` back-substitutes
in the same table and unpacks into the same int64 matrix and pivot tuple as
every other field, and ``det`` is ``rank == n``.  A ``Subspace`` of F_2^n
keeps its basis packed, its rows in basis order beside the table that
``_gf2_pivots`` builds from them.  Every Subspace is made from vectors, a
dual from the kernel basis ``_kernel_basis`` gives, and keeps the packed
rows and the table that ``rref`` ends with, so its rows are packed once, by
the ``rref`` that makes it.  The rank of a stack [U; W] of subspaces
reduces W's kept rows, in basis order, into a ``list.copy()`` of U's kept
table, so it packs neither basis again and reinserts none of U's rows.

``excess_rank(U, W, cap=None)`` is the one rank of a pair of Subspaces of
one ambient space: rank [U; W] - dim U, or the least of that and cap.  The
LCD routine (``subspaces.dual_meets``), ``subspaces.distance`` and the
minimum-distance scan of ``codes`` take it pair by pair.  Over F_2 it
reduces W's kept echelon rows into a copy of U's kept table, by
``_gf2_pivots`` when exact and by the capped scan ``_gf2_capped_ranks``
when capped, which stops once cap of them add a pivot.  Other fields
reduce W's basis by U's, which is in rref, in one product, and eliminate
what is left on the columns outside U's pivots, stopping, when capped,
once cap pivots are found.

Batched naive decoding has two forms, both with Subspace tops (the
codewords) and the received words as one stack of matrices B (T x h x n).
``excess_ranks(tops, stack)`` ranks every [tops[i]; B] of the batch, and B
alone, as ``ranks`` does: the padded tops are broadcast against the stack
into one stack, in batches of at most ``STACK_ENTRIES`` entries, and the
ranks come back as arrays; over F_2 up to 8 columns the tops and the
stack are packed into words first, and the words are broadcast.
``capped_stack_ranks(tops, stack)``, over F_2 only (``FieldMismatch``
elsewhere), gives per B a capped rank rank(i, cap) =
min(rank [tops[i]; B] - dim tops[i], cap): each top is its kept echelon
table, each B an echelon set once, and rank(i, cap) reduces B's rows into a
copy of top i's table until cap of them add a pivot, going on from where
the last call stopped.
Every GF(2) capped form runs one capped scan, ``_gf2_capped_ranks``; it
keeps its count of missing pivots to itself, since at each pivot that count
cost the uncapped reduction of ``rank`` about a tenth of its time.

The stacked core, in ``_ranks``, ranks a stack of matrices (B x m x n)
over every field but F_2 row by row, with no pivot search: ``ranks(stack)``
returns the rank of each matrix of a stack.  A tall stack is transposed
first (rank A = rank A^T), so m <= n.  At row i every matrix pivots on the
first nonzero entry of its row i, and one update across the whole stack
clears that column from rows i + 1 on, subtracting from each of them its
entry there over the pivot times row i; a matrix whose row i is zero
divides by 1 instead of 0 and scales a zero row, so no matrix needs a
branch.  Each nonzero row then
has a pivot column that is zero in every row below it, so the rows left
nonzero are independent and their count is the rank: m - 1 updates of
some 15 to 20 numpy calls, however large B is.  Row operations are bound
once per field, on its log/exp tables: on every field a division is the
gather exp[log P + log(1 / v)]; on odd F_p the update is T - fac (x) row,
reduced as T - T // p * p (products below 2**40), and over F_{p^r} a
product is one gather, and a difference is an XOR when p = 2, a lookup in a
table of all q**2 differences for odd p up to q = 2**8, and digitwise
above.  A lone matrix (``rank``,
``rref``, ``det`` and ``excess_rank``) is reduced column by column by
``_eliminate_lone``, on 2-d slices with the pivot a Python int: each column
pivots on its first nonzero entry in an unused row (no row moves).
``rref`` keeps each divided pivot row and marks its row used, so each
column is cleared above and below its pivot; in ``rank`` and ``det`` (the
pivot product times the sign of the pivot rows' permutation) the update
zeroes the pivot rows.

Every F_2 rank runs on packed rows instead: Python ints, as above, past 8
columns, and numpy words up to 8.  There ``ranks`` packs the stack once
into one uint64 word per row (``_gf2_words``, an m x B array, so a step
over the rows is contiguous), and ``_gf2_word_ranks`` goes column by column
over it, from the highest bit, with a few numpy calls per column for the
whole stack: by then no row has a bit above the column's, so a matrix's
largest row is a pivot whenever any of its rows has the bit, and that word
is XORed into every row of the matrix that has the bit, itself included,
until every matrix has all its pivots.  An int64 entry costs a broadcast
update per row; a word is one XOR per row, the machine-word rows of M4RI
(Albrecht, Bard and Hart, ACM TOMS 2010).  Over F_2 past 8 columns,
``ranks`` packs the whole stack at once into ints and reduces each matrix
on its packed rows.  Zero rows and zero columns change no rank, so
``padded_stack`` pads matrices of mixed shapes into one stack:
``BlockRankFactor`` ranks its row sets and column blocks in one ``ranks``
call.  Every
elimination entry point rejects entries outside [0, q) with
``EncodingOutOfRange``, by one max over the operand's uint64 view, since a
gather would silently wrap a negative entry and packing would read any
nonzero entry as 1; and, where it casts its operand to int64
(``_integers``), any nonempty operand whose dtype is not an integer one,
since the cast would truncate 1.5 to 1 and read True or an object as an
integer.  Operands known to be in range are checked once:
``block_ranks`` multiplies its checked stack, and the simulator its drawn
coefficients, by ``_product``, ``matmul`` without the check, and rank them
by ``_ranks``, ``ranks`` without it.  ``excess_rank`` takes Subspaces, whose
entries were checked when they were made, and checks none again.  The
elementwise operations (``add``, ``sub``, ``mul``, ``div``, ``inv``, ``neg``,
``pow``) take every operand through the same two checks, a scalar as a
Python int compared with q; ``padded_stack``, which knows no field, takes
its matrices through ``_integers`` and leaves the range to the rank form
that takes the stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EncodingOutOfRange,
    FieldMismatch,
    FieldTooLarge,
    LcdError,
    NotPrime,
)
from .linalg import as_integer, exact_product

MAX_FIELD_ORDER = 1 << 20
# powers of g that one step of the table build writes, at most
_EXP_CHUNK = 1 << 14
_SUB_TABLE_LIMIT = 1 << 8  # odd-p orders whose q**2 differences are tabled
# entries of one stack that excess_ranks hands to ranks (and of one chunk
# of simulated trials): a few hundred kB of int64 per temporary
STACK_ENTRIES = 1 << 15
# the widest F_2 matrices ranked a whole stack at once, on one word per row
_GF2_STACKED_COLUMNS = 8


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- polynomial helpers over F_p (coefficient tuples, low degree first) ---

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for t in range(deg):
                out[k - deg + t] = (out[k - deg + t] - c * mod[t]) % p
    return _poly_trim(tuple(out))


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim(tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                            for i in range(n)))


def _poly_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    while len(a) - 1 >= db and _poly_trim(tuple(a)):
        a = list(_poly_trim(tuple(a)))
        if len(a) - 1 < db:
            break
        c = (a[-1] * inv_lb) % p
        shift = len(a) - 1 - db
        for t in range(len(b)):
            a[shift + t] = (a[shift + t] - c * b[t]) % p
    return _poly_trim(tuple(a))


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)
    return a


def _is_irreducible(poly, p):
    """Rabin's test for a monic polynomial over F_p."""
    r = len(poly) - 1
    if r == 1:
        return True
    x = (0, 1)
    xq = _poly_powmod(x, p ** r, poly, p)
    if _poly_sub(xq, x, p):
        return False
    for ell in _prime_factors(r):
        h = _poly_sub(_poly_powmod(x, p ** (r // ell), poly, p), x, p)
        g = _poly_gcd(poly, h, p)
        if len(g) - 1 != 0:
            return False
    return True


def _smallest_irreducible(p, r):
    """Lexicographically smallest (constant term first) monic irreducible."""
    for tail in product(range(p), repeat=r):
        # zero constant term means x divides; value 1+sum(tail) = 0 at x=1
        # means (x-1) divides.  Both screens keep the lexicographic order.
        if tail[0] == 0 or (1 + sum(tail)) % p == 0:
            continue
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise LcdError(f"no irreducible polynomial of degree {r} over F_{p}")  # unreachable


# --- F_2 elimination on rows packed into Python ints ---

def _gf2_pack(A):
    """Rows of a 0/1 matrix, or of every matrix of a stack, as ints; column c
    is bit 8*ceil(cols/8) - 1 - c."""
    if A.size == 0:
        return []
    nb = (A.shape[-1] + 7) // 8
    # packbits is several times faster on booleans than on int64
    buf = np.packbits(A.astype(bool), axis=-1).tobytes()
    return [int.from_bytes(buf[i:i + nb], "big") for i in range(0, len(buf), nb)]


def _gf2_table(n):
    """An empty echelon table for packed rows of n columns: a list indexed by
    bit length, 8 ceil(n / 8) + 1 entries, each 0 or the row of its length."""
    return [0] * (8 * ((n + 7) // 8) + 1)


def _gf2_pivots(rows, table):
    """Reduce packed rows into an echelon table, in place, so that it spans
    them too; return the number of pivots they add."""
    added = 0
    for r in rows:
        while r:
            b = r.bit_length()
            p = table[b]
            if not p:
                table[b] = r
                added += 1
                break
            r ^= p
    return added


def _gf2_echelons(S):
    """For each matrix of a 0/1 stack, the packed rows of an echelon set of
    its rows, as _gf2_pivots finds them, leading bit first."""
    height = S.shape[1]
    packed = _gf2_pack(S)
    tables = [_gf2_table(S.shape[2]) for _ in range(len(S))]
    for t, table in enumerate(tables):
        _gf2_pivots(packed[t * height:(t + 1) * height], table)
    return [[r for r in reversed(table) if r] for table in tables]


def _gf2_capped_ranks(tables, rows, fields):
    """The capped rank rank(i, cap) = min(e_i, cap), where e_i is the number
    of pivots that the bit fields (r >> shift) & mask of the packed rows r,
    with (shift, mask) = fields[i], add to the echelon table tables[i].  The
    whole-row field (0, -1) takes each row r as it is, with no shift or mask.

    Block i reduces its rows, as _gf2_pivots does, into a copy of its table,
    taking each row's field only when it comes to it, and stops once cap
    new pivots are in.  It keeps its place in rows, so a later call with a
    higher cap goes on from there and never restarts the block.
    """
    tables = [t.copy() for t in tables]
    found = [0] * len(tables)     # pivots added to each table so far
    read = [0] * len(tables)      # rows of each block reduced so far

    def rank(i, cap):
        need = cap - found[i]
        if need > 0:
            table = tables[i]
            shift, mask = fields[i]
            whole = (shift, mask) == (0, -1)
            for k in range(read[i], len(rows)):
                r = rows[k] if whole else (rows[k] >> shift) & mask
                while r:
                    b = r.bit_length()
                    p = table[b]
                    if not p:
                        table[b] = r
                        need -= 1
                        if not need:
                            found[i] = cap
                            read[i] = k + 1
                            return cap
                        break
                    r ^= p
            # every row read: the count is exact, and below the cap
            found[i] = cap - need
            read[i] = len(rows)
            return cap - need
        return cap

    return rank


def _gf2_words(S):
    """The rows of a 0/1 stack (B x m x n, n <= 64) as one word each: an
    (m x B) uint64 array whose entry (i, b) is row i of matrix b, column c in
    bit n - 1 - c.  Rows go first, so a step over the rows is contiguous."""
    return (S.swapaxes(0, 1) @ (1 << np.arange(S.shape[2])[::-1])).view(np.uint64)


def _gf2_word_ranks(W, n):
    """Rank of every matrix of a stack of words W (m x B), as _gf2_words
    packs it, of n columns; W is overwritten.

    Column by column, from the highest bit, no row has a bit above the
    column's, so a matrix's largest row has the column's bit if any row
    has it.  That row is the pivot, and it is XORed into every row of its
    matrix that has the bit, itself included.  The loop stops once every
    matrix has all its pivots.
    """
    m, B = W.shape
    out = np.zeros(B, dtype=np.int64)
    left = B * min(m, n)  # pivots still possible
    for c in reversed(range(n)):
        if not left:
            break
        bit = 1 << c
        piv = W.max(0)
        found = piv >= bit
        out += found
        W ^= (W >= bit) * piv
        left -= np.count_nonzero(found)
    return out


def _gf2_rref(A):
    """(R, pivots, (rows, table)) of a 0/1 int64 matrix: R and pivots as
    GF.rref returns them, then R's nonzero rows packed, in order, and the
    echelon table that holds them, as _gf2_pivots builds it from them."""
    rows, cols = A.shape
    nb = (cols + 7) // 8
    table = _gf2_table(cols)
    _gf2_pivots(_gf2_pack(A), table)
    # back-substitute in place from the rightmost pivot column, so each row
    # is reduced only by rows that are reduced already: each clears its own
    # pivot bit and touches no other, so r & mask is the bits left to clear
    mask = 0
    for b, r in enumerate(table):
        if r:
            m = r & mask
            while m:
                r ^= table[m.bit_length()]
                m = r & mask
            table[b] = r
            mask |= 1 << (b - 1)
    lead = [b for b in range(8 * nb, 0, -1) if table[b]]
    packed = [table[b] for b in lead]
    R = np.zeros((rows, cols), dtype=np.int64)
    if lead:
        buf = b"".join(r.to_bytes(nb, "big") for r in packed)
        bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
        R[:len(lead)] = bits.reshape(len(lead), 8 * nb)[:, :cols]
    return R, tuple(8 * nb - b for b in lead), (packed, table)


def _odd_permutation(perm):
    """Whether the permutation perm of range(len(perm)) is odd."""
    perm = list(perm)
    swaps = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            swaps += 1
    return swaps % 2 == 1


def _integers(M, copy=False):
    """M as an int64 array, once its entries are integers: a cast would
    truncate floats and read bools and objects, so a nonempty operand of any
    other dtype raises ``EncodingOutOfRange`` (an empty list, which numpy
    reads as floats, holds no entry)."""
    A = np.asarray(M)
    if A.size and A.dtype.kind not in "iu":
        raise EncodingOutOfRange(f"encoded entries must be integers, not {A.dtype}")
    return A.astype(np.int64, copy=copy)


def padded_stack(mats):
    """The matrices as one int64 stack, each padded with zero rows and zero
    columns to the largest height and width.  Entries must be integers, as
    ``_integers`` takes them; their range is checked where the stack is
    ranked.  A lone int64 matrix comes back as a view."""
    mats = [_integers(A) for A in mats]
    rows = max((A.shape[0] for A in mats), default=0)
    cols = max((A.shape[1] for A in mats), default=0)
    if len(mats) == 1 and mats[0].shape == (rows, cols):
        return mats[0][None]
    if all(A.shape == (rows, cols) for A in mats):
        # one C loop, where a batch of received words of one shape needs no padding
        return np.array(mats, dtype=np.int64).reshape(len(mats), rows, cols)
    S = np.zeros((len(mats), rows, cols), dtype=np.int64)
    for block, A in zip(S, mats):
        block[:A.shape[0], :A.shape[1]] = A
    return S


class GF:
    """The finite field F_{p^r} with a deterministic modulus.

    Instances are cheap to compare (by (p, r)); use :func:`field_new` for a
    cached instance.  All arithmetic methods accept encoded ints or int64
    numpy arrays and broadcast like numpy; scalars in, scalar out.
    """

    def __init__(self, p, r=1):
        if as_integer(r, "extension degree") < 1:
            raise LcdError(f"extension degree must be a positive integer, got {r}")
        if isinstance(p, str) or not p >= 2:
            raise NotPrime(f"{p!r} is not prime")
        # a p past the largest order is rejected before trial division,
        # which would take O(sqrt p) steps
        if p > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"order {p}**{r} exceeds {MAX_FIELD_ORDER}")
        # a non-integral p is no prime, not one to be truncated
        if int(p) != p or _prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        # with p >= 2, an r of the largest order's bit length is too large,
        # and p ** r is never computed for a huge r
        if r >= MAX_FIELD_ORDER.bit_length() or p ** r > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"order {p}**{r} exceeds {MAX_FIELD_ORDER}")
        self.p = int(p)
        self.r = int(r)
        self.q = self.p ** self.r
        # prime fields use the convention modulus = x
        self.modulus = (0, 1) if r == 1 else _smallest_irreducible(p, r)
        self._pw = self.p ** np.arange(self.r, dtype=np.int64)
        # x^r = -(c_0 + ... + c_{r-1} x^(r-1)) modulo the monic modulus
        self._tail = np.array([(-c) % p for c in self.modulus[:r]], dtype=np.int64)
        self._exp = None
        self._log = None
        self._ops = None
        self.generator = None

    # --- bookkeeping ---

    def __repr__(self):
        return f"GF({self.q})" if self.r > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((GF, self.p, self.r))

    def coeffs(self, val):
        """Polynomial coordinates (c_0, ..., c_{r-1}) of an encoded value."""
        val = int(val)
        return tuple((val // self.p ** i) % self.p for i in range(self.r))

    def from_coeffs(self, coeffs):
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(coeffs))

    # --- digit helpers (vectorised base-p decomposition) ---

    def _to_digits(self, a):
        return (np.asarray(a)[..., None] // self._pw) % self.p

    def _from_digits(self, d):
        return d @ self._pw

    def _shifts(self, d):
        """M_b, the matrix of multiplication by b over F_p, from the digits d
        (..., r) of b, as (r, r, ...): entry (i, t) is digit t of x^i b.

        Each row is the last shifted up one digit, plus its top digit times
        the modulus tail.  Digit planes go first, so that each step is a few
        whole-array operations, and the rows are reduced mod p once, at the
        end: row i is at most (p - 1) p**i before, below q."""
        r = self.r
        out = np.empty((r, r) + d.shape[:-1], dtype=np.int64)
        out[0] = d.transpose(-1, *range(d.ndim - 1))
        tail = self._tail.reshape((r,) + (1,) * (d.ndim - 1))
        for i in range(1, r):
            out[i] = tail * out[i - 1, -1]
            out[i, 1:] += out[i - 1, :-1]
        return self._mod_p(out)

    def _elements(self, a):
        """a, once its entries are integers in [0, q) (``_integers`` and
        ``_check``): an array as int64, a scalar as an int, whose arithmetic
        costs a tenth of a 0-d array's.  A scalar is compared with q as it
        is, where a max would cost more."""
        if type(a) is int and 0 <= a < self.q:
            return a
        A = _integers(a)
        if A.ndim or not 0 <= A.item() < self.q:
            self._check(A)
        return A if A.ndim else A.item()

    def _coerce2(self, a, b):
        scalar = np.isscalar(a) and np.isscalar(b)
        return self._elements(a), self._elements(b), scalar

    # --- scalar/elementwise arithmetic ---

    def add(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.p == 2:
            out = a ^ b
        elif self.r == 1:
            out = (a + b) % self.p
        else:
            out = self._from_digits((self._to_digits(a) + self._to_digits(b)) % self.p)
        return int(out) if scalar else out

    def neg(self, a):
        return self.sub(0, a)

    def sub(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.p == 2:
            out = a ^ b
        elif self.r == 1:
            out = (a - b) % self.p
        else:
            out = self._sub_digits(a, b)
        return int(out) if scalar else out

    def _sub_digits(self, a, b):
        # a // p^i is congruent to digit i of a mod p, so no reduction first
        a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
        return self._from_digits((a // self._pw - b // self._pw) % self.p)

    def mul(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.r == 1:
            out = (a * b) % self.p
        else:
            exp, log = self._tables()
            out = exp[log[a] + log[b]]
        return int(out) if scalar else out

    def inv(self, a):
        scalar = np.isscalar(a)
        arr = self._elements(a)
        if not np.all(arr):
            raise DivisionByZero("0 has no inverse")
        exp, log = self._tables()
        out = exp[self.q - 1 - log[arr]]
        return int(out) if scalar else out

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """Square-and-multiply, elementwise on arrays; e may be negative for
        nonzero a."""
        scalar = np.isscalar(a)
        e = as_integer(e, "exponent")
        if e < 0:
            a = self.inv(a)
            e = -e
        base = self._elements(a)
        result = np.ones_like(base)
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return int(result) if scalar else result

    def _tables(self):
        """(exp, log), as ``_build_tables`` makes them on first use."""
        if self._exp is None:
            self._build_tables()
        return self._exp, self._log

    def _build_tables(self):
        """exp/log tables of the smallest primitive element g.

        exp[i] = g^(i mod (q - 1)) below the sentinel s = 2 (q - 1), which is
        log[0] and lies past every sum of two nonzero logs; exp is zero from s
        on.  So exp[log[a] + log[b]] = a b for all a, b, and
        exp[q - 1 - log[a]] = 1 / a for a != 0, with no mask and no modulo.
        """
        p, q, mod = self.p, self.q, self.modulus
        order_factors = _prime_factors(q - 1)
        gen = next(g for g in range(1, q)
                   if all(_poly_powmod(self.coeffs(g), (q - 1) // ell, mod, p) != (1,)
                          for ell in order_factors))
        # two periods of the powers, then the zero tail from the sentinel on
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        exp[0] = 1
        # doubling in place: exp[n:n + k] = g^k exp[n - k:n], with g^k =
        # exp[k - 1] g as k <= n.  Multiplying by g^k is F_p-linear, so it is
        # one product of digit vectors with M_{g^k}
        n = 1
        while n < q - 1:
            k = min(n, _EXP_CHUNK, q - 1 - n)
            gk = _poly_mulmod(self.coeffs(int(exp[k - 1])), self.coeffs(gen), mod, p)
            M = self._shifts(self._to_digits(np.array(self.from_coeffs(gk))))
            digits = self._dot(self._to_digits(exp[n - k:n]), M)
            exp[n:n + k] = self._from_digits(self._mod_p(digits))
            n += k
        exp[q - 1:2 * (q - 1)] = exp[:q - 1]
        log = np.empty(q, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1)
        log[0] = 2 * (q - 1)
        self.generator = gen
        self._exp = exp
        self._log = log

    # --- matrices (int64 arrays of encoded values) ---

    def asmatrix(self, M):
        return self._check(self._as_rows(M))

    def matmul(self, A, B):
        A, B = _integers(A), _integers(B)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
        return self._product(self._check(A), self._check(B))

    def _product(self, A, B):
        """matmul of int64 matrices already known to fit and lie in [0, q)."""
        if self.r == 1:
            return self._mod_p(self._dot(A, B))
        # one product over F_p, expanding the operand with fewer entries into
        # its multiplication matrices: digits(AB) = digits(A) M_B, the block
        # (j, l) of M_B being M_{B[j, l]}, or, as ab = ba, M_A digits(B)
        (m, k), n, r = A.shape, B.shape[1], self.r
        if A.size <= B.size:
            MA = self._shifts(self._to_digits(A)).transpose(2, 1, 3, 0).reshape(m * r, k * r)
            Bd = self._to_digits(B).transpose(0, 2, 1).reshape(k * r, n)
            # digit t of entry (i, l) is entry (i r + t, l) of the product
            return self._pw @ self._mod_p(self._dot(MA, Bd).reshape(m, r, n))
        MB = self._shifts(self._to_digits(B)).transpose(2, 0, 3, 1).reshape(k * r, n * r)
        C = self._dot(self._to_digits(A).reshape(m, k * r), MB)
        return self._from_digits(self._mod_p(C.reshape(m, n, r)))

    def _dot(self, A, B):
        """Exact integer product of int64 matrices with entries in [0, p)."""
        return exact_product(A, B, A.shape[1] * (self.p - 1) ** 2)

    def _mod_p(self, C):
        # & 1, and a floor division by a scalar, are faster than numpy's % on
        # int64 arrays; both are exact for negative C too
        p = self.p
        return C & 1 if p == 2 else C - C // p * p

    @staticmethod
    def _as_rows(M):
        A = _integers(M)
        if A.ndim == 1:
            A = A[None, :]
        if A.ndim != 2:
            raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
        return A

    def _check(self, A):
        """A itself, once every entry is known to lie in [0, q)."""
        # as unsigned words a negative entry is past 2**63, so one max checks both ends
        if A.size and A.view(np.uint64).max() >= self.q:
            raise EncodingOutOfRange(f"encoded entries must lie in [0, {self.q})")
        return A

    def _elimination_ops(self):
        """(div_rows, elim) for the elimination core, bound once per field, on
        stacks or lone matrices: div_rows(P, v) divides P by v, broadcast,
        and elim(T, fac, P) sets T[b] to T[b] - fac[b] (x) P[b] for every b
        (T to T - fac (x) P for a lone T)."""
        if self._ops is None:
            p, q = self.p, self.q
            exp, log = self._tables()
            # 1 / v = g**(q - 1 - log v): a log in [1, q - 1], so its sum
            # with log[0] stays in the zero part of exp, any other in range
            inv_log = q - 1 - log
            if self.r == 1:
                def elim(T, fac, P):
                    # entries lie below 2**20, so products stay below 2**40;
                    # a floor division by a scalar is faster than numpy's %
                    T -= fac[..., None] * P[..., None, :]
                    T -= T // p * p
            elif p == 2:
                def elim(T, fac, P):
                    T ^= exp[log[fac][..., None] + log[P][..., None, :]]
            else:
                # a - b read off a table of all q**2 differences when small
                table = (self._sub_digits(*np.divmod(np.arange(q * q), q))
                         if q <= _SUB_TABLE_LIMIT else None)

                def elim(T, fac, P):
                    X = exp[log[fac][..., None] + log[P][..., None, :]]
                    T[...] = self._sub_digits(T, X) if table is None else table[T * q + X]

            self._ops = (lambda P, v: exp[log[P] + inv_log[v]], elim)
        return self._ops

    def _eliminate_lone(self, A, full, limit=None):
        """Row-reduce one matrix A (m x n, entries in [0, q)) in place, on
        2-d slices with its pivots as Python ints, column by column: a
        column's pivot is its first nonzero entry in a row not yet used, and
        the pivot row, divided by its pivot, clears the column in every
        other row, itself included unless full.  full (rref) writes each
        divided pivot row back and marks its row used, so A ends in its rref
        up to row order; otherwise each pivot row ends zero.  No row moves.
        A limit stops the elimination once it has that many pivots.

        Returns one step (c, row, value) per pivot: its column, its row and
        its value before the division.
        """
        div_rows, elim = self._elimination_ops()
        m, n = A.shape
        limit = m if limit is None else min(limit, m)
        used = set()
        steps = []
        for c in range(n):
            if len(steps) >= limit:
                break
            col = A[:, c]
            nz = col.nonzero()[0].tolist()
            r = next((i for i in nz if i not in used), None)
            if r is None:
                continue
            v = int(col[r])
            steps.append((c, r, v))
            if not full and (len(steps) == limit or len(nz) == 1):
                A[r] = 0  # as the elimination leaves it
                continue
            # the update computes its product before it writes, so a pivot
            # of 1 needs no copy of its row but for the write-back of full
            row = A[r, c:]
            row = div_rows(row, v) if v != 1 else row.copy() if full else row
            if len(nz) > 1:
                elim(A[:, c:], col, row)
            if full:
                A[r, c:] = row
                used.add(r)
        return steps

    def stacked(self, n):
        """Whether stacks of matrices of n columns are ranked whole, a fixed
        number of numpy calls per row or column: on every field but F_2 row
        by row (``_ranks``), and on F_2 up to 8 columns on one word per row,
        column by column.  Past that, F_2 ranks rows packed into Python
        ints, one matrix at a time, and the decoders take lazy capped
        scans."""
        return self.q != 2 or n <= _GF2_STACKED_COLUMNS

    def ranks(self, stack):
        """Rank of every matrix of a stack (B x m x n), as an int64 array.

        A stack the field ranks whole (``stacked(n)``) runs one elimination
        of the whole stack, row by row off F_2 and on one word per row over
        F_2; a wider F_2 stack is packed at once and each matrix reduced on
        its packed rows.  Zero rows and zero columns, as padding, change no
        rank.
        """
        S = _integers(stack, copy=True)
        if S.ndim != 3:
            raise DimensionMismatch(f"expected a stack of matrices, got ndim={S.ndim}")
        return self._ranks(self._check(S))

    def _ranks(self, S):
        """ranks of a stack already checked, which it may overwrite; off F_2
        by the row-by-row core (see the module docstring)."""
        B, m, n = S.shape
        if not S.size:
            return np.zeros(B, dtype=np.int64)
        if self.q == 2:
            if self.stacked(n):
                return _gf2_word_ranks(_gf2_words(S), n)
            return np.array([len(rows) for rows in _gf2_echelons(S)], dtype=np.int64)
        if m > n:
            S, m = S.transpose(0, 2, 1), n  # rank A = rank A^T
        div_rows, elim = self._elimination_ops()
        every = np.arange(B)
        for i in range(m - 1):
            # each matrix pivots on the first nonzero entry of its row i and
            # clears that column below it; a zero row i divides by 1, not by
            # 0, whose inv_log entry is negative, and clears nothing
            row = S[:, i]
            c = (row != 0).argmax(1)
            v = row[every, c]
            fac = div_rows(S[every, i + 1:, c], (v + (v == 0))[:, None])
            elim(S[:, i + 1:], fac, row)
        # a nonzero row's pivot column is zero in every row below it
        return np.count_nonzero(S.any(2), 1)

    def rref(self, M, *, _kept=False):
        """Reduced row echelon form.  Returns (R, pivots).

        With _kept, for Subspace alone, a third item follows: over F_2 the
        (rows, table) that Subspace.echelon() gives for R's nonzero rows,
        which the reduction ends with, and None on other fields."""
        A = self._check(self._as_rows(M))
        if self.q == 2:
            R, piv, kept = _gf2_rref(A)
        else:
            S = A.copy()
            steps = self._eliminate_lone(S, full=True)
            rows = [r for _, r, _ in steps]
            # the rows without a pivot end zero, so pivot rows already in
            # order (the usual case) leave the matrix in rref as it stands
            R, piv, kept = S, tuple(c for c, _, _ in steps), None
            if rows != list(range(len(rows))):
                R = np.zeros(A.shape, dtype=np.int64)
                R[:len(rows)] = S.take(rows, 0)
        return (R, piv, kept) if _kept else (R, piv)

    def rank(self, M):
        A = self._check(self._as_rows(M))
        if self.q == 2:
            return _gf2_pivots(_gf2_pack(A), _gf2_table(A.shape[1]))
        return len(self._eliminate_lone(A.copy(), full=False))

    def excess_rank(self, U, W, cap=None):
        """rank [U; W] - dim U for Subspaces U and W of one ambient space,
        or the least of that and cap when a cap is given.

        Over F_2, W's kept echelon rows are reduced into a copy of U's kept
        table, so neither basis is packed again; with a cap the reduction
        stops once cap of them add a pivot.  Other fields reduce W's basis by
        U's in one product, as U's basis is in rref, and run one elimination
        of what is left on the columns outside U's pivots, which a cap stops
        once it has cap pivots.
        """
        if W.n != U.n:
            raise DimensionMismatch("stacked subspaces need one ambient space")
        if self.q == 2:
            rows, table = W.echelon()[0], U.echelon()[1]
            if cap is None:
                return _gf2_pivots(rows, table.copy())
            return _gf2_capped_ranks([table], rows, [(0, -1)])(0, cap)
        B, V = U.basis, W.basis
        # V - V[:, piv] B is zero on U's pivot columns piv, and its rank is
        # rank [U; W] - dim U
        free = np.ones(U.n, dtype=bool)
        free[(B != 0).argmax(1)] = False
        R = self.sub(V[:, free], self._product(V[:, ~free], B[:, free]))
        e = len(self._eliminate_lone(R, full=False, limit=cap))
        return e if cap is None else min(e, cap)

    def excess_ranks(self, tops, stack):
        """(dim, E) for Subspace tops and a stack of matrices B_t (T x h x n),
        as int64 arrays: dim[t] = rank B_t and E[t, i] = rank [tops[i]; B_t] -
        dim tops[i], exactly, on every field.

        The tops, padded with zero rows to one height and joined by a top of
        no rows (whose stack has rank B_t), are broadcast against the stack
        into one stack of every [tops[i]; B_t], ranked by ``ranks`` in
        batches of at most STACK_ENTRIES entries.  Over F_2 up to 8 columns
        the tops and the stack are packed first, one word per row, and the
        words are broadcast.
        """
        S = self._checked_stack(stack, [U.n for U in tops])
        T, b, n = S.shape
        k = len(tops)
        C = padded_stack([U.basis for U in tops] + [np.zeros((0, n), dtype=np.int64)])
        a = C.shape[1]
        words = self.q == 2 and self.stacked(n)
        size = max(1, STACK_ENTRIES // max((k + 1) * (a + b) * n, 1))
        ranks = np.empty((T, k + 1), dtype=np.int64)
        for at in range(0, T, size):
            W = S[at:at + size]
            if words:
                joint = np.empty((a + b, len(W), k + 1), dtype=np.uint64)
                joint[:a] = _gf2_words(C)[:, None]
                joint[a:] = _gf2_words(W)[:, :, None]
                got = _gf2_word_ranks(joint.reshape(a + b, len(W) * (k + 1)), n)
            else:
                joint = np.empty((len(W), k + 1, a + b, n), dtype=np.int64)
                joint[:, :, :a] = C
                joint[:, :, a:] = W[:, None]
                got = self._ranks(joint.reshape(-1, a + b, n))
            ranks[at:at + len(W)] = got.reshape(-1, k + 1)
        return ranks[:, k], ranks[:, :k] - np.array([U.dim for U in tops], dtype=np.int64)

    def _checked_stack(self, stack, columns):
        """stack as a (T x h x n) int64 array, once it is one, n equals every
        count of columns, and every entry lies in [0, q)."""
        S = _integers(stack)
        if S.ndim != 3 or any(c != S.shape[2] for c in columns):
            raise DimensionMismatch(
                f"cannot rank a stack of shape {S.shape} against {sorted(set(columns))} columns")
        return self._check(S)

    def capped_stack_ranks(self, tops, stack):
        """Over F_2, for each matrix B of a stack (T x h x n), (rank B, rank)
        where rank(i, cap) = min(rank [tops[i]; B] - dim tops[i], cap), for
        Subspace tops.

        Each top's table is the one its Subspace keeps from its first use,
        and each B is reduced once to an echelon set of its own.
        rank(i, cap) reduces B's echelon rows into a copy of top i's table
        until cap of them add a pivot; a later call with a higher cap goes
        on from there.  Other fields rank exactly, by ``excess_ranks``.
        """
        if self.q != 2:
            raise FieldMismatch("capped stack ranks are taken over F_2 only")
        S = self._checked_stack(stack, [U.n for U in tops])
        tables = [U.echelon()[1] for U in tops]
        whole = [(0, -1)] * len(tops)     # (r >> 0) & -1 is r itself
        return [(len(rows), _gf2_capped_ranks(tables, rows, whole))
                for rows in _gf2_echelons(S)]

    def det(self, M):
        A = _integers(M)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("determinant needs a square matrix")
        n = A.shape[0]
        if self.q == 2:
            return int(self.rank(A) == n)
        steps = self._eliminate_lone(self._check(A).copy(), full=False)
        if len(steps) < n:
            return 0
        # no row moved: row rows[k] holds pivot k, so the rows taken in pivot
        # order form an upper triangular matrix, and det is its diagonal's
        # product times the sign of that permutation of the rows
        det = self.neg(1) if _odd_permutation([r for _, r, _ in steps]) else 1
        for _, _, v in steps:
            det = self.mul(det, v)
        return det

    def kernel(self, M):
        """Basis of the right null space {x : M x = 0}, rows in rref form."""
        return self.rref(self._kernel_basis(*self.rref(M)))[0]

    def _kernel_basis(self, R, piv):
        """A basis of kernel(R), one row per free column, of a matrix R in rref
        with pivot columns piv, not reduced (a Subspace reduces it when it is
        made): row i is 1 at the i-th free column and -R's entries of that
        column at the pivot columns."""
        n = R.shape[1]
        free = np.ones(n, dtype=bool)
        free[list(piv)] = False
        free = np.flatnonzero(free)
        K = np.zeros((free.size, n), dtype=np.int64)
        K[np.arange(free.size), free] = 1
        K[:, list(piv)] = self.neg(R[:len(piv), free]).T
        return K

    def inv_matrix(self, A):
        A = self.asmatrix(A)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch("inverse needs a square matrix")
        R, piv = self.rref(np.hstack([A, np.eye(n, dtype=np.int64)]))
        if piv != tuple(range(n)):
            raise LcdError("matrix is singular")
        return R[:, n:]


def _block_spans(widths, cols):
    """(start, end) column spans of consecutive blocks of the given widths."""
    ends = list(accumulate(widths, initial=0))
    if min(widths, default=0) < 0 or ends[-1] != cols:
        raise DimensionMismatch(f"block widths {widths} do not split {cols} columns")
    return list(zip(ends, ends[1:]))


class BlockRankFactor:
    """A right factor B, prepared once for the column-block ranks of rows B.

    For consecutive column blocks of B of the given widths and a stack of
    row sets (T x h x rows of B), ``factor.block_ranks(stack)`` returns the
    rank of each row set and of each block of its product, as arrays; B is
    checked when the factor is built.  Over F_2 ``factor.capped(stack)``
    returns, for each row set, (rank of rows, rank) with rank(i, cap) =
    min(rank of block i of rows B, cap): the product runs on Four-Russians
    tables (see the module docstring) and each block is scanned lazily and
    resumed on each call.  On every field ``factor.nonzero_blocks(M)`` tells
    which column blocks of M B are nonzero, over F_2 from the same tables.
    B itself is kept only where ``block_ranks`` reads it, when the field
    ranks a whole stack of matrices of as many columns as B has rows at
    once: every field but F_2 (where ``nonzero_blocks`` reads it too), and
    F_2 up to 8 rows.
    """

    def __init__(self, field, B, widths):
        B = field.asmatrix(B)
        spans = _block_spans(widths, B.shape[1])
        self.field = field
        self.inner = B.shape[0]
        self._spans = spans
        self._B = B if field.stacked(self.inner) else None
        if field.q != 2:
            return
        # column c of B is bit c of its row's int, so block (s, e) of a
        # product row is its bits s to e - 1: (row >> s) & mask
        self._fields = [(s, (1 << (e - s)) - 1) for s, e in spans]
        self._empty = None    # its blocks' echelon tables of no rows, built by capped
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(B.astype(bool), axis=1, bitorder="little")]
        rows += [0] * (-len(rows) % 8)
        # a byte of a packed received row holds column 8 g + j in bit 7 - j,
        # so entry x of table g is the XOR of rows 8 g + 7 - b over the bits b
        # set in x; doubling adds bit b to the 2**b entries built so far
        self._tables = []
        for g in range(0, len(rows), 8):
            table = [0]
            for b in range(8):
                row = rows[g + 7 - b]
                table += [t ^ row for t in table]
            self._tables.append(table)

    def block_ranks(self, stack):
        """(dim, E) for a stack of row sets (T x h x rows of B), as int64
        arrays: dim[t] is the rank of row set t and E[t, i] the rank of
        block i of its product with B, exactly.

        The span decides every block rank, so any spanning set serves, and
        zero rows pad the row sets to one height.  The stack is multiplied
        by B in one matmul, and the row sets and every column block of
        their products, padded with zero columns to the widest, are ranked
        in one ``ranks`` stack.
        Only a factor that keeps B (see the class docstring) takes it.
        """
        if self._B is None:
            raise DimensionMismatch(
                f"exact block ranks over F_2 need a factor of at most "
                f"{_GF2_STACKED_COLUMNS} rows, not {self.inner}")
        f = self.field
        S = f._checked_stack(stack, [self.inner])
        T, height, inner = S.shape
        P = f._product(S.reshape(T * height, inner), self._B)
        P = P.reshape(T, height, self._B.shape[1])
        spans = self._spans
        width = max([inner] + [e - s for s, e in spans])
        # the row sets themselves as block 0, then every block of their product
        blocks = np.zeros((T, len(spans) + 1, height, width), dtype=np.int64)
        blocks[:, 0, :, :inner] = S
        for k, (s, e) in enumerate(spans, 1):
            blocks[:, k, :, :e - s] = P[:, :, s:e]
        ranks = f._ranks(blocks.reshape(T * (len(spans) + 1), height, width))
        ranks = ranks.reshape(T, len(spans) + 1)
        return ranks[:, 0], ranks[:, 1:]

    def capped(self, stack):
        """Over F_2, for each row set of a stack (T x h x rows of B), (rank of
        rows, rank) where rank(i, cap) = min(rank of block i of rows B, cap).

        The stack is checked and packed at once, and each row set reduced to
        an echelon set (no back-substitution), whose size is the rank of the
        rows.  Its product rows come off the Four-Russians tables, and
        rank(i, cap) reads block i of them lazily, one product row at a
        time, into an echelon table of its own until cap of them add a
        pivot: a block stopped after two rows never touches the others, and
        a later call with a higher cap goes on from there.  Other fields
        rank exactly, by ``block_ranks``.
        """
        f = self.field
        if f.q != 2:
            raise FieldMismatch("capped block ranks are taken over F_2 only")
        S = f._checked_stack(stack, [self.inner])
        if self._empty is None:
            self._empty = [[0] * (mask.bit_length() + 1) for _, mask in self._fields]
        return [(len(rows), _gf2_capped_ranks(self._empty, self._m4rm(rows), self._fields))
                for rows in _gf2_echelons(S)]

    def nonzero_blocks(self, M):
        """For a matrix M of as many columns as B has rows, whether each
        column block of M B is nonzero, as a bool array.

        Over F_2 the product rows come off the Four-Russians tables and are
        ORed into one int, whose bit field of each block is then read;
        other fields take the product with the kept B.
        """
        f = self.field
        A = f.asmatrix(M)
        if A.shape[1] != self.inner:
            raise DimensionMismatch(
                f"cannot multiply {A.shape} by a factor of {self.inner} rows")
        if f.q == 2:
            seen = 0
            for row in self._m4rm(_gf2_pack(A)):
                seen |= row
            return np.array([bool((seen >> s) & mask) for s, mask in self._fields], dtype=bool)
        P = f._product(A, self._B)
        return np.array([P[:, s:e].any() for s, e in self._spans], dtype=bool)

    def _m4rm(self, rows):
        """The product rows of rows packed as _gf2_pack packs them: byte g of
        a row picks one entry of table g, and the entries are XORed."""
        groups = len(self._tables)
        out = []
        for r in rows:
            acc = 0
            for table, x in zip(self._tables, r.to_bytes(groups, "big")):
                acc ^= table[x]
            out.append(acc)
        return out


@lru_cache(maxsize=None, typed=True)
def field_new(p, r=1):
    """Cached field constructor; repeated calls return the same object.  The
    cache is typed, so that it takes no 1.0 or True for 1."""
    return GF(p, r)


def field_from_order(q):
    """Field of order q = p^r, inferring (p, r)."""
    q = as_integer(q, "field order")
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    # compared before trial division, which would take O(sqrt q) steps; so a
    # q past the largest order is too large even when not a prime power
    if q > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"order {q} exceeds {MAX_FIELD_ORDER}")
    p = min(_prime_factors(q))
    r = 0
    m = q
    while m % p == 0:
        m //= p
        r += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return field_new(p, r)
