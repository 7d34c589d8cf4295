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
routines live on the field object (``f.matmul``, ``f.rref``, ...).  Extension
field multiplication uses log/antilog tables for q <= 2**16 and coefficient
arithmetic above that.  The tables hold the powers of the smallest primitive
element g, and ``log[0]`` is a sentinel past every sum of two nonzero logs
with ``exp`` zero from there on, so a product, zero included, is the single
gather ``exp[log[a] + log[b]]``.

A matrix product over F_p, and each per-digit product of an extension
field, runs through float BLAS whenever every partial sum, at most
inner_dim * (p - 1)**2, is an integer the float type holds exactly
whatever the summation order: float32 below 2**24, float64 below 2**53.
Past 2**53 it is an int64 product, which numpy computes without BLAS.
``linalg.exact_product`` makes that choice, for ``int_matmul`` too.  The
result is reduced mod p (``& 1`` when p = 2), so every product is exact.
``matmul`` rejects entries outside [0, q) with ``EncodingOutOfRange``.

A right factor B multiplied by many row sets, as the projection decoder
multiplies every received word by the same complement coordinates, is
prepared once as a ``BlockRankFactor`` with the widths of its column blocks.
``capped`` returns, per row set, the rank of the rows and a capped rank
rank(i, cap) = min(rank of block i of rows B, cap), on every field.  Over
F_2, when the factor is built, each row of B is packed into one Python int,
column c in bit c, and every 8 rows of B get one 256-entry table of the XORs
of their subsets (the Four-Russians method, M4RM: Albrecht, Bard and Hart,
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
``products(M)`` returns the packed product rows of M B themselves, from the
same table loop.  The product identity check N_i N_j^T = I of a GF(2)
``[X | I]`` code (``constructions``) prepares one factor over the blocks
N_j^T side by side and compares each product row k of N_i with the int
whose bits k, t + k, 2t + k, ... are set, one comparison per row.  Every
other field keeps B and runs one ``matmul`` of all the row sets, stacked,
and one ``ranks`` of every column block of every row set; its capped rank
is the least of the exact rank and the cap, and carries the exact ranks
(``_exact_capped``), so a verdict can read them whole.

Elimination over F_2 (chosen by ``q == 2`` alone) packs each row into one
Python int, column 0 in the highest bit, so adding two rows is one XOR of
arbitrary width.  Rows are reduced into a pivot table keyed by leading bit
(the bit length of the row): ``rank`` stops there, ``rref`` back-substitutes
and unpacks into the same int64 matrix and pivot tuple as every other
field, and ``det`` is ``rank == n``.  A ``Subspace`` of F_2^n keeps its
basis packed, as the echelon table ``_gf2_pivots`` builds, once its
``echelon()`` is first called (never when it is made): its rref rows have
distinct leading bits, so that is one ``_gf2_pack`` and no elimination.
``_gf2_pivots`` can start from a copy of such a table, so the rank of a
stack [U; W] of subspaces packs neither basis again and reinserts none of
U's rows.  ``stack_ranks`` ranks many stacks [A_i; B_j] of the same
matrices or Subspaces, as the LCD check and the distance scans do: each
operand becomes one echelon table, a Subspace's own or a matrix's reduced
packed rows, and a pair reduces B_j's rows into a copy of A_i's.  An
operand given as a function is called when the first pair that needs it
comes up (other fields call it at once), so the LCD routine takes a dual
over F_2 only when a pair needs it.
``capped_stack_ranks(tops, bottoms)`` is its capped form for batched naive
decoding, rank(i, cap) = min(rank [tops[i]; B] - rank tops[i], cap) on
every field.  Over F_2 each top is an echelon table as above, each bottom
an echelon set once, and rank(i, cap) reduces B's rows into a copy of top
i's table until cap of them add a pivot, going on from where the last call
stopped; every other field ranks every stack exactly, in one pass, and
caps the ranks it has.  ``capped_pair_ranks(spaces, pairs)`` is the capped
form for the minimum-distance scan, one capped rank per pair of Subspaces
[U_i; U_j], from U_i's kept table and U_j's kept rows over F_2 and from
``stack_ranks`` elsewhere.  Every GF(2) capped form runs one capped scan,
``_gf2_capped_ranks``; it keeps its count of missing pivots to itself,
since at each pivot that count cost the uncapped reduction of ``rank`` and
``stack_ranks`` about a tenth of its time.

Every other field runs one elimination core, ``_eliminate``, on a stack of
matrices (B x m x n): ``rank``, ``rref`` and ``det`` pass a stack of one,
and ``ranks(stack)`` returns the rank of each matrix of a stack.  Column by
column, each matrix pivots on its first unused row with a nonzero entry
there (no row moves); the pivot rows are divided by their pivots, and one
gathered product and one difference clear the column across the whole
stack, so the numpy calls per column do not grow with B.  Row operations
are bound once per field: on F_p the update is ``(T - fac (x) row) % p``
(products below 2**40) with inverses from a table of Fermat powers; with
log/exp tables a product is one gather, and a difference is an XOR when
p = 2, a lookup in a table of all q**2 differences for odd p up to q = 2**8,
and digitwise above; past 2**16 the public ``mul``, ``sub`` and ``inv`` do
it.  ``rref`` keeps each divided pivot row and marks its row used, so each
column is cleared above and below its pivot; in ``rank`` and ``det`` (the
pivot product times the sign of the pivot rows' permutation) the update
zeroes the pivot rows, and they stop once every matrix has all its pivots.
A stack of one skips the search per matrix: its pivot is its first nonzero
entry in the column, in an unused row.  Over F_2,
``ranks`` packs the whole stack at once and reduces each matrix on its
packed rows.  Zero rows and zero columns change no rank, so
``padded_stack`` pads matrices of mixed shapes into one stack:
``BlockRankFactor`` ranks its column blocks in one ``ranks`` call, and
``stack_ranks`` on fields other than F_2 goes through ``ranks`` in stacks
of at most ``STACK_ENTRIES`` entries.  Every elimination entry point
rejects entries outside [0, q) with ``EncodingOutOfRange``, by one max over
the operand's uint64 view, since a gather would silently wrap a negative
entry and packing would read any nonzero entry as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, product, tee

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
from .linalg import exact_product

MAX_FIELD_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16
_SUB_TABLE_LIMIT = 1 << 8  # odd-p orders whose q**2 differences are tabled
# entries of one stack that stack_ranks hands to ranks (and of one chunk of
# simulated trials): a few hundred kB of int64 per temporary
STACK_ENTRIES = 1 << 15


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


def _gf2_pivots(rows, table=None):
    """Echelon basis of the span of packed rows: {leading bit length: row}.

    Given an echelon table to start from, the rows are reduced into a copy
    of it, so the result spans both; the table itself is left as it is.
    """
    table = dict(table) if table else {}
    for r in rows:
        while r:
            b = r.bit_length()
            p = table.get(b)
            if p is None:
                table[b] = r
                break
            r ^= p
    return table


def _gf2_echelon(B):
    """The table _gf2_pivots builds from the rows of B, a matrix in row
    echelon form: its rows' leading columns differ, so one pack and no
    elimination."""
    return {r.bit_length(): r for r in _gf2_pack(B)}


def _gf2_tables(operands, mats):
    """The echelon table of each operand's rows: a Subspace keeps its own,
    built on first use; a matrix's rows, mats[i], are reduced here."""
    return [A.echelon() if hasattr(A, "echelon") else _gf2_pivots(_gf2_pack(M))
            for A, M in zip(operands, mats)]


def _gf2_capped_ranks(tables, rows, fields):
    """The capped rank rank(i, cap) = min(e_i, cap), where e_i is the number
    of pivots that the bit fields (r >> shift) & mask of the packed rows r,
    with (shift, mask) = fields[i], add to the echelon table tables[i].

    Block i reduces its rows, as _gf2_pivots does, into a copy of its table,
    taking each row's field only when it comes to it, and stops once cap
    new pivots are in.  It keeps its place in rows, so a later call with a
    higher cap goes on from there and never restarts the block.
    """
    tables = [dict(t) for t in tables]
    found = [0] * len(tables)     # pivots added to each table so far
    read = [0] * len(tables)      # rows of each block reduced so far

    def rank(i, cap):
        need = cap - found[i]
        if need > 0:
            table = tables[i]
            shift, mask = fields[i]
            for k in range(read[i], len(rows)):
                r = (rows[k] >> shift) & mask
                while r:
                    b = r.bit_length()
                    p = table.get(b)
                    if p is None:
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


def _exact_capped(ranks):
    """The capped rank rank(i, cap) = min(ranks[i], cap) of exact ranks.

    It keeps the ranks themselves as its attribute exact, so a caller that
    can use them whole (codes._bounded_verdict) asks no cap at all.
    """
    def rank(i, cap):
        return min(ranks[i], cap)

    rank.exact = ranks
    return rank


def _gf2_rref(A):
    """(R, pivots) of a 0/1 int64 matrix, as GF.rref returns them."""
    rows, cols = A.shape
    nb = (cols + 7) // 8
    table = _gf2_pivots(_gf2_pack(A))
    # back-substitute from the rightmost pivot column, so each row is reduced
    # only by rows that are reduced already (and so touch no other pivot)
    done = {}
    mask = 0
    for b in sorted(table):
        r = table[b]
        m = r & mask
        while m:
            t = m.bit_length()
            r ^= done[t]
            m ^= 1 << (t - 1)
        done[b] = r
        mask |= 1 << (b - 1)
    lead = sorted(done, reverse=True)
    R = np.zeros((rows, cols), dtype=np.int64)
    if lead:
        buf = b"".join(done[b].to_bytes(nb, "big") for b in lead)
        bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
        R[:len(lead)] = bits.reshape(len(lead), 8 * nb)[:, :cols]
    return R, tuple(8 * nb - b for b in lead)


def _fermat_inv(a, p):
    """a**(p - 2) mod p elementwise: 1 / a over F_p for a != 0 (0 for 0)."""
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        e >>= 1
        if e:
            a = a * a % p
    return out


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


# the pivot flags of a stack of one in a column where it pivots
_LONE = np.ones(1, dtype=bool)
_LONE.flags.writeable = False


def padded_stack(mats):
    """The matrices as one stack, each padded with zero rows and zero columns
    to the largest height and width.  A lone matrix comes back as a view."""
    rows = max((A.shape[0] for A in mats), default=0)
    cols = max((A.shape[1] for A in mats), default=0)
    if len(mats) == 1 and mats[0].shape == (rows, cols):
        return mats[0][None]
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
        if r < 1 or int(r) != r:
            raise LcdError(f"extension degree must be a positive integer, got {r}")
        if not p >= 2:
            raise NotPrime(f"{p} is not prime")
        # a p past the largest order is rejected before trial division,
        # which would take O(sqrt p) steps
        if p > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"order {p}**{r} exceeds {MAX_FIELD_ORDER}")
        if _prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        # with p >= 2, an r of the largest order's bit length is too large,
        # and p ** r is never computed for a huge r
        if r >= MAX_FIELD_ORDER.bit_length() or p ** r > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"order {p}**{r} exceeds {MAX_FIELD_ORDER}")
        q = p ** r
        self.p = int(p)
        self.r = int(r)
        self.q = int(q)
        # prime fields use the convention modulus = x
        self.modulus = (0, 1) if r == 1 else _smallest_irreducible(p, r)
        self._pw = self.p ** np.arange(self.r, dtype=np.int64)
        self._redc = self._reduction_rows() if r > 1 else None
        self._exp = None
        self._log = None
        self._ops = None
        self.generator = None

    def _reduction_rows(self):
        """Row s holds the coefficients of x^(r+s) modulo the field modulus."""
        p, r = self.p, self.r
        rep = np.array([(-c) % p for c in self.modulus[:r]], dtype=np.int64)
        rows = np.zeros((r - 1, r), dtype=np.int64)
        if r > 1:
            rows[0] = rep
        for s in range(1, r - 1):
            prev = rows[s - 1]
            nxt = np.zeros(r, dtype=np.int64)
            nxt[1:] = prev[:-1]
            rows[s] = (nxt + prev[r - 1] * rep) % p
        return rows

    # --- bookkeeping ---

    def __repr__(self):
        return f"GF({self.q})" if self.r > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((GF, self.p, self.r))

    def element(self, val):
        val = int(val)
        if not 0 <= val < self.q:
            raise EncodingOutOfRange(f"encoded value {val} outside [0, {self.q})")
        return FieldElement(self, val)

    def coeffs(self, val):
        """Polynomial coordinates (c_0, ..., c_{r-1}) of an encoded value."""
        val = int(val)
        return tuple((val // self.p ** i) % self.p for i in range(self.r))

    def from_coeffs(self, coeffs):
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(coeffs))

    # --- digit helpers (vectorised base-p decomposition) ---

    def _to_digits(self, a):
        return (a[..., None] // self._pw) % self.p

    def _from_digits(self, d):
        return d @ self._pw

    @staticmethod
    def _coerce2(a, b):
        scalar = np.isscalar(a) and np.isscalar(b)
        return np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), scalar

    # --- scalar/elementwise arithmetic ---

    def add(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.p == 2:
            out = np.bitwise_xor(a, b)
        elif self.r == 1:
            out = (a + b) % self.p
        else:
            out = self._from_digits((self._to_digits(a) + self._to_digits(b)) % self.p)
        return int(out) if scalar else out

    def neg(self, a):
        scalar = np.isscalar(a)
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            out = a
        elif self.r == 1:
            out = (-a) % self.p
        else:
            out = self._from_digits((-self._to_digits(a)) % self.p)
        return int(out) if scalar else out

    def sub(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.p == 2:
            out = np.bitwise_xor(a, b)
        elif self.r == 1:
            out = (a - b) % self.p
        else:
            out = self._sub_digits(a, b)
        return int(out) if scalar else out

    def _sub_digits(self, a, b):
        # a // p^i is congruent to digit i of a mod p, so no reduction first
        return self._from_digits((a[..., None] // self._pw - b[..., None] // self._pw) % self.p)

    def mul(self, a, b):
        a, b, scalar = self._coerce2(a, b)
        if self.r == 1:
            out = (a * b) % self.p
        elif self._ensure_tables():
            out = self._exp[self._log[a] + self._log[b]]
        else:
            out = self._mul_digits(a, b)
        return int(out) if scalar else out

    def _mul_digits(self, a, b):
        """Coefficientwise product, any q; broadcasts like numpy."""
        da, db = self._to_digits(a), self._to_digits(b)
        da, db = np.broadcast_arrays(da, db)
        shape = da.shape[:-1]
        r = self.r
        conv = np.zeros(shape + (2 * r - 1,), dtype=np.int64)
        for i in range(r):
            for j in range(r):
                conv[..., i + j] += da[..., i] * db[..., j]
        conv %= self.p
        for s in range(2 * r - 2, r - 1, -1):
            c = conv[..., s]
            conv[..., :r] = (conv[..., :r] + c[..., None] * self._redc[s - r]) % self.p
            conv[..., s] = 0
        return self._from_digits(conv[..., :r])

    def inv(self, a):
        scalar = np.isscalar(a)
        arr = np.asarray(a, dtype=np.int64)
        if np.any(arr == 0):
            raise DivisionByZero("0 has no inverse")
        if self.r == 1:
            return pow(int(arr), self.p - 2, self.p) if scalar else _fermat_inv(arr, self.p)
        if self._ensure_tables():
            out = self._exp[self.q - 1 - self._log[arr]]
            return int(out) if scalar else out
        if scalar:
            return self.pow(int(arr), self.q - 2)
        return np.array([self.pow(int(v), self.q - 2) for v in arr.ravel()],
                        dtype=np.int64).reshape(arr.shape)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """Square-and-multiply; e may be negative for nonzero a."""
        a = int(a)
        e = int(e)
        if e < 0:
            a = self.inv(a)
            e = -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _ensure_tables(self):
        if self.q > _TABLE_LIMIT:
            return False
        if self._exp is None:
            self._build_tables()
        return True

    def _build_tables(self):
        """exp/log tables of the smallest primitive element g.

        exp[i] = g^(i mod (q - 1)) below the sentinel s = 2 (q - 1), which is
        log[0] and lies past every sum of two nonzero logs; exp is zero from s
        on.  So exp[log[a] + log[b]] = a b for all a, b, and
        exp[q - 1 - log[a]] = 1 / a for a != 0, with no mask and no modulo.
        """
        p, r, q, mod = self.p, self.r, self.q, self.modulus

        def mul(a, b):
            return self.from_coeffs(_poly_mulmod(self.coeffs(a), self.coeffs(b), mod, p))

        order_factors = _prime_factors(q - 1)
        gen = next(g for g in range(1, q)
                   if all(_poly_powmod(self.coeffs(g), (q - 1) // ell, mod, p) != (1,)
                          for ell in order_factors))
        # doubling: exp[k:2k] = g^k exp[:k].  Multiplying by g^k is F_p-linear,
        # so it is one product of digit vectors with M, whose row i holds the
        # digits of x^i g^k
        exp = np.ones(1, dtype=np.int64)
        while exp.size < q - 1:
            gk = mul(int(exp[-1]), gen)
            M = np.array([self.coeffs(mul(p ** i, gk)) for i in range(r)], dtype=np.int64)
            exp = np.concatenate([exp, self._from_digits(self._to_digits(exp) @ M % p)])
        exp = exp[:q - 1]
        sentinel = 2 * (q - 1)
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        log[0] = sentinel
        self.generator = gen
        self._exp = np.concatenate([exp, exp, np.zeros(sentinel + 1, dtype=np.int64)])
        self._log = log

    # --- matrices (int64 arrays of encoded values) ---

    def asmatrix(self, M):
        A = np.asarray(M, dtype=np.int64)
        if A.ndim == 1:
            A = A[None, :]
        if A.ndim != 2:
            raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
        return self._check(A)

    def matmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
        self._check(A)
        self._check(B)
        if self.r == 1:
            return self._mod_p(self._dot(A, B))
        Ad = self._to_digits(A)
        Bd = self._to_digits(B)
        conv = np.zeros((A.shape[0], B.shape[1], 2 * self.r - 1), dtype=np.int64)
        for i in range(self.r):
            for j in range(self.r):
                conv[:, :, i + j] += self._dot(Ad[:, :, i], Bd[:, :, j])
        conv = self._mod_p(conv)
        for s in range(2 * self.r - 2, self.r - 1, -1):
            c = conv[:, :, s]
            conv[:, :, :self.r] = (conv[:, :, :self.r] + c[:, :, None] * self._redc[s - self.r]) % self.p
            conv[:, :, s] = 0
        return self._from_digits(conv[:, :, :self.r])

    def _dot(self, A, B):
        """Exact integer product of int64 matrices with entries in [0, p)."""
        return exact_product(A, B, A.shape[1] * (self.p - 1) ** 2)

    def _mod_p(self, C):
        # & 1 is several times faster than % 2 on int64 arrays
        return C & 1 if self.p == 2 else C % self.p

    @staticmethod
    def _as_rows(M):
        A = np.asarray(M, dtype=np.int64)
        if A.ndim == 1:
            A = A[None, :]
        if A.ndim != 2:
            raise DimensionMismatch("elimination expects a matrix")
        return A

    def _check(self, A):
        """A itself, once every entry is known to lie in [0, q)."""
        # as unsigned words a negative entry is past 2**63, so one max checks both ends
        if A.size and A.view(np.uint64).max() >= self.q:
            raise EncodingOutOfRange(f"encoded entries must lie in [0, {self.q})")
        return A

    def _elimination_ops(self):
        """(div_rows, elim) for the q != 2 core, bound once per field, on
        stacks: div_rows(P, v) is row b of P divided by v[b], and
        elim(T, fac, P) sets T[b] to T[b] - fac[b] (x) P[b] for every b."""
        if self._ops is None:
            p, q = self.p, self.q
            if self.r == 1:
                inv = (_fermat_inv(np.arange(p, dtype=np.int64), p).__getitem__
                       if p <= _TABLE_LIMIT else lambda a: _fermat_inv(a, p))

                def elim(T, fac, P):
                    # entries lie below 2**20, so products stay below 2**40
                    T -= fac[:, :, None] * P[:, None, :]
                    T %= p

                self._ops = (lambda P, v: P * inv(v)[:, None] % p, elim)
            elif self._ensure_tables():
                exp, log = self._exp, self._log
                # 1 / v = g**(q - 1 - log v): a log in [1, q - 1], so its sum
                # with log[0] stays in the zero part of exp, any other in range
                inv_log = q - 1 - log
                if p == 2:
                    def elim(T, fac, P):
                        T ^= exp[log[fac][:, :, None] + log[P][:, None, :]]
                else:
                    # a - b read off a table of all q**2 differences when small
                    table = (self._sub_digits(*np.divmod(np.arange(q * q), q))
                             if q <= _SUB_TABLE_LIMIT else None)

                    def elim(T, fac, P):
                        X = exp[log[fac][:, :, None] + log[P][:, None, :]]
                        T[...] = self._sub_digits(T, X) if table is None else table[T * q + X]

                self._ops = (lambda P, v: exp[log[P] + inv_log[v][:, None]], elim)
            else:
                def elim(T, fac, P):
                    T[...] = self.sub(T, self.mul(fac[:, :, None], P[:, None, :]))

                self._ops = (lambda P, v: self.mul(P, self.inv(v)[:, None]), elim)
        return self._ops

    def _eliminate(self, S, full):
        """Row-reduce every matrix of the stack S (B x m x n, entries in
        [0, q)) in place, over a field with q != 2.

        Column by column, each matrix pivots on its first unused row with a
        nonzero entry in the column.  The pivot rows are divided by their
        pivots, and one gathered product and one difference clear the column
        across the whole stack, the pivot rows included, so rank and det
        leave the used rows zero and need no record of them.  full (rref,
        which passes a stack of one) writes the divided pivot row back and
        marks it used, so the matrix ends in its rref up to row order.  No
        row moves.  The loop ends once every matrix has min(m, n) pivots,
        without clearing the last column unless full.

        Returns one step (c, has, rows, values) per column c in which some
        matrix pivots: has[b] tells whether matrix b does, rows[b] is its
        pivot row and values[b] its pivot before the division.
        """
        B, m, n = S.shape
        div_rows, elim = self._elimination_ops()
        # rows indexed flat, row i of matrix b as b m + i: one-axis gathers
        # are several times cheaper than two-axis ones on small stacks
        flat_rows = S.reshape(B * m, n)
        first = np.arange(B) * m if B > 1 else None
        used = np.zeros(m, dtype=bool) if full else None
        steps = []
        left = B * min(m, n)  # pivots still possible
        for c in range(n):
            if not left:
                break
            col = flat_rows[:, c]
            if B == 1:
                # a lone matrix pivots on its first nonzero entry, in an
                # unused row under full: no search per matrix, and a slice
                # reaches the pivot row without a gather
                nz = col.nonzero()[0]
                r = next((i for i in nz.tolist() if not (full and used[i])), None)
                if r is None:
                    continue
                at = slice(r, r + 1)
                rows, has, k = (r,), _LONE, 1
                values = col[at].copy()
                unit = values[0] == 1
                clear = nz.size > 1
            else:
                cand = col != 0
                rows = cand.reshape(B, m).argmax(1)
                at = first + rows
                has = cand[at]
                k = np.count_nonzero(has)
                if not k:
                    continue
                values = col[at]
                unit = False
                # whether any row but the pivots has a nonzero entry to clear
                clear = np.count_nonzero(col) > k
            steps.append((c, has, rows, values))
            left -= k
            if not (left or full):
                break  # every matrix has all its pivots
            if k < B:
                at, values = at[has], values[has]
            if full or clear:
                source = (flat_rows[at] if B == 1 else flat_rows.take(at, 0))[:, c:]
                # a lone pivot of 1 divides nothing: a copy, which the update
                # below cannot change, serves
                pivot_rows = source.copy() if unit else div_rows(source, values)
            if clear:
                P = pivot_rows
                if k < B:
                    # a matrix without a pivot here gets a zero row: no change
                    P = np.zeros((B, n - c), dtype=np.int64)
                    P[has] = pivot_rows
                # P and every unused row are zero left of column c
                elim(S[:, :, c:], col.reshape(B, m), P)
            if full:
                flat_rows[at, c:] = pivot_rows
                used[at] = True
            elif not clear:
                flat_rows[at] = 0  # as the elimination leaves them
        return steps

    def ranks(self, stack):
        """Rank of every matrix of a stack (B x m x n), as an int64 array.

        Over F_2 the whole stack is packed at once and each matrix reduced
        on its packed rows; every other field runs one elimination of the
        stack.  Zero rows and zero columns, as padding, change no rank.
        """
        S = np.array(stack, dtype=np.int64)
        if S.ndim != 3:
            raise DimensionMismatch(f"expected a stack of matrices, got ndim={S.ndim}")
        self._check(S)
        B, m, _ = S.shape
        out = np.zeros(B, dtype=np.int64)
        if not S.size:
            return out
        if self.q == 2:
            rows = _gf2_pack(S)
            out[:] = [len(_gf2_pivots(rows[i:i + m])) for i in range(0, len(rows), m)]
            return out
        for _, has, _, _ in self._eliminate(S, full=False):
            out += has
        return out

    def rref(self, M):
        """Reduced row echelon form.  Returns (R, pivots)."""
        A = self._check(self._as_rows(M))
        if self.q == 2:
            return _gf2_rref(A)
        S = A[None].copy()
        steps = self._eliminate(S, full=True)
        rows = [step[2][0] for step in steps]
        # the rows without a pivot end zero, so pivot rows already in order
        # (the usual case) leave the matrix in rref as it stands
        R = S[0]
        if rows != list(range(len(rows))):
            R = np.zeros(A.shape, dtype=np.int64)
            R[:len(rows)] = S[0].take(rows, 0)
        return R, tuple(step[0] for step in steps)

    def rank(self, M):
        A = self._check(self._as_rows(M))
        if self.q == 2:
            return len(_gf2_pivots(_gf2_pack(A)))
        # in a stack of one, every step is a pivot of the one matrix
        return len(self._eliminate(A[None].copy(), full=False))

    def _operands(self, mats):
        """Each of mats as a matrix checked to lie in [0, q): a Subspace (any
        operand with an ``echelon`` method) gives its rref basis, checked
        when the Subspace was made."""
        return [A.basis if hasattr(A, "echelon") else self._check(self._as_rows(A))
                for A in mats]

    def stack_ranks(self, tops, bottoms, pairs):
        """rank([tops[i]; bottoms[j]]) for each (i, j) of pairs, lazily.

        Each top and bottom is a matrix or a Subspace, or a function of no
        arguments that gives one, and all need the same number of columns.
        Over F_2 each one becomes an echelon table once, not once per pair:
        a Subspace's own table, kept from its first use, or the reduced
        packed rows of a matrix.  A matrix or Subspace is checked and made a
        table now, a function's operand when the first pair that needs it
        comes up, so a caller that stops early never calls the rest.  The
        rank of a pair reduces the bottom's table rows into a copy of the
        top's table.  Every other field calls the functions now, pads the
        tops, and the bottoms, with zero rows to one height and ranks the
        pairs in stacks of at most STACK_ENTRIES entries.
        """
        if self.q != 2:
            top_mats = self._operands([A() if callable(A) else A for A in tops])
            bottom_mats = self._operands([B() if callable(B) else B for B in bottoms])
            if len({A.shape[1] for A in top_mats + bottom_mats}) > 1:
                raise DimensionMismatch("stacked matrices need the same number of columns")
            return self._paired_ranks(padded_stack(top_mats), padded_stack(bottom_mats),
                                      iter(pairs))
        widths = set()

        def table(A):
            A = A() if callable(A) else A
            mats = self._operands([A])
            widths.add(mats[0].shape[1])
            if len(widths) > 1:
                raise DimensionMismatch("stacked matrices need the same number of columns")
            return _gf2_tables([A], mats)[0]

        top_tables = [A if callable(A) else table(A) for A in tops]
        bottom_tables = [B if callable(B) else table(B) for B in bottoms]

        def made(tables, i):
            if callable(tables[i]):
                tables[i] = table(tables[i])
            return tables[i]

        return (len(_gf2_pivots(made(bottom_tables, j).values(), made(top_tables, i)))
                for i, j in pairs)

    def capped_stack_ranks(self, tops, bottoms):
        """For each matrix B of bottoms, (rank B, rank) where
        rank(i, cap) = min(rank [tops[i]; B] - rank tops[i], cap).

        Each top is a matrix or a Subspace.  Over F_2 each top is an echelon
        table once, a Subspace's own kept from its first use, and each B
        reduced once to an echelon set of its own.  rank(i, cap) reduces B's
        echelon rows into a copy of top i's table until cap of them add a
        pivot; a later call with a higher cap goes on from there.  Every
        other field ranks every stack exactly, in one pass.
        """
        top_mats = self._operands(tops)
        bottoms = [self._as_rows(A) for A in bottoms]
        if len({A.shape[1] for A in top_mats + bottoms}) > 1:
            raise DimensionMismatch("stacked matrices need the same number of columns")
        if not bottoms:
            return []
        # every bottom checked at once, padded with zero rows to one height
        S = self._check(padded_stack(bottoms))
        T, k = len(bottoms), len(tops)
        if self.q != 2:
            # a matrix of no rows over each B and under each top: their
            # stacks have rank B and rank tops[i]
            pairs = [(i, T) for i in range(k)]
            pairs += [(i, t) for t in range(T) for i in range(k + 1)]
            ranks = list(self._paired_ranks(padded_stack(top_mats + [S[0, :0]]),
                                            np.concatenate([S, np.zeros_like(S[:1])]),
                                            iter(pairs)))
            out = []
            for at in range(k, len(ranks), k + 1):
                joint = [r - b for r, b in zip(ranks[at:at + k], ranks[:k])]
                out.append((ranks[at + k], _exact_capped(joint)))
            return out
        tables = _gf2_tables(tops, top_mats)
        whole = [(0, -1)] * k     # (r >> 0) & -1 is r itself
        height = S.shape[1]
        packed = _gf2_pack(S)
        out = []
        for t in range(T):
            rows = list(_gf2_pivots(packed[t * height:(t + 1) * height]).values())
            out.append((len(rows), _gf2_capped_ranks(tables, rows, whole)))
        return out

    def capped_pair_ranks(self, spaces, pairs):
        """For each (i, j) of pairs, lazily, a capped rank rank(0, cap) =
        min(e, cap) of e = rank [spaces[i]; spaces[j]] - dim spaces[i], for
        Subspaces of one ambient space.

        Over F_2 it is _gf2_capped_ranks over a copy of U_i's kept echelon
        table and U_j's kept echelon rows, so the reduction stops at the
        cap.  Every other field ranks the pairs exactly, in the stacks of
        stack_ranks, and caps them.
        """
        if self.q == 2:
            whole = [(0, -1)]
            return (_gf2_capped_ranks([spaces[i].echelon()],
                                      list(spaces[j].echelon().values()), whole)
                    for i, j in pairs)
        pairs, stacked = tee(pairs)
        return (_exact_capped([r - spaces[i].dim])
                for (i, _), r in zip(pairs, self.stack_ranks(spaces, spaces, stacked)))

    def _paired_ranks(self, tops, bottoms, pairs):
        entries = (tops.shape[1] + bottoms.shape[1]) * tops.shape[2]
        size = max(1, STACK_ENTRIES // max(entries, 1))
        while chunk := list(islice(pairs, size)):
            i, j = np.array(chunk, dtype=np.int64).T
            yield from self.ranks(np.concatenate([tops[i], bottoms[j]], axis=1)).tolist()

    def det(self, M):
        A = np.asarray(M, dtype=np.int64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("determinant needs a square matrix")
        n = A.shape[0]
        if self.q == 2:
            return int(self.rank(A) == n)
        steps = self._eliminate(self._check(A)[None].copy(), full=False)
        if len(steps) < n:
            return 0
        # no row moved: row rows[k] holds pivot k, so the rows taken in pivot
        # order form an upper triangular matrix, and det is its diagonal's
        # product times the sign of that permutation of the rows
        det = self.neg(1) if _odd_permutation([int(s[2][0]) for s in steps]) else 1
        for _, _, _, values in steps:
            det = self.mul(det, int(values[0]))
        return det

    def kernel(self, M):
        """Basis of the right null space {x : M x = 0}, rows in rref form."""
        A = self._as_rows(M)
        if A.shape[0] == 0:
            return np.eye(A.shape[1], dtype=np.int64)
        return self.kernel_of_rref(*self.rref(A))

    def kernel_of_rref(self, R, piv):
        """kernel(R) of a matrix R in rref with pivot columns piv, which
        skips reducing R again (a Subspace basis is in rref already)."""
        n = R.shape[1]
        if not piv:
            return np.eye(n, dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[list(piv)] = False
        free = np.flatnonzero(free)
        if not free.size:
            return np.zeros((0, n), dtype=np.int64)
        # x_free = e_i forces x_pivot = -R[:, free] e_i
        K = np.zeros((free.size, n), dtype=np.int64)
        K[np.arange(free.size), free] = 1
        K[:, list(piv)] = self.neg(R[:len(piv), free]).T
        K, _ = self.rref(K)
        return K

    def solve(self, A, b):
        """One solution x of A x = b, or None if inconsistent."""
        A = self.asmatrix(A)
        b = np.asarray(b, dtype=np.int64).ravel()
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatch("right-hand side length mismatch")
        aug = np.hstack([A, b[:, None]])
        R, piv = self.rref(aug)
        n = A.shape[1]
        if n in piv:
            return None
        x = np.zeros(n, dtype=np.int64)
        for i, pc in enumerate(piv):
            x[pc] = R[i, n]
        return x

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

    ``factor.capped(row_sets, flags)`` returns, for each row set, (rank of
    rows, rank) with rank(i, cap) = min(rank of block i of rows B, cap),
    for consecutive column blocks of B of the given widths; B is checked
    when the factor is built.  Over F_2 the product runs on Four-Russians
    tables (see the module docstring) and each block is scanned lazily and
    resumed on each call, and ``factor.products(M)`` returns the rows of
    M B, each packed into one int.  Every other field keeps B.
    """

    def __init__(self, field, B, widths):
        B = field.asmatrix(B)
        spans = _block_spans(widths, B.shape[1])
        self.field = field
        self.inner = B.shape[0]
        if field.q != 2:
            self._B = B
            self._spans = spans
            return
        # column c of B is bit c of its row's int, so block (s, e) of a
        # product row is its bits s to e - 1: (row >> s) & mask
        self._fields = [(s, (1 << (e - s)) - 1) for s, e in spans]
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

    def capped(self, row_sets, independent):
        """For each row set and flag of independent, (rank of rows, rank)
        where rank(i, cap) = min(rank of block i of rows B, cap).

        A row set flagged independent, as a Subspace basis is, is trusted
        to be so: its rank is its number of rows.  The span decides every
        block rank, so any spanning set serves.  The row sets are padded
        with zero rows to one height and checked at once.  Over F_2 they
        are packed at once, and each taken as it is when independent or
        else reduced to an echelon set (no back-substitution), whose size
        is the rank of the rows.  Its product rows come off the
        Four-Russians tables, and rank(i, cap) reads block i of them
        lazily, one product row at a time, into an echelon table of its own
        until cap of them add a pivot: a block stopped after two rows never
        touches the others, and a later call with a higher cap goes on from
        there.  Every other field runs one matmul of all the row sets and
        one stacked rank call over every column block of every row set.
        """
        f = self.field
        mats = self._rows(row_sets)
        S = f._check(padded_stack(mats))
        T, height, _ = S.shape
        if f.q != 2:
            dims = np.array([len(A) for A in mats], dtype=np.int64)
            dependent = [t for t, flag in enumerate(independent) if not flag]
            if dependent:
                dims[dependent] = f.ranks(S[dependent])
            P = f.matmul(S.reshape(T * height, self.inner), self._B)
            P = P.reshape(T, height, self._B.shape[1])
            # every block, padded with zero columns to the widest, in one stack
            spans = self._spans
            width = max((e - s for s, e in spans), default=0)
            blocks = np.zeros((T, len(spans), height, width), dtype=np.int64)
            for k, (s, e) in enumerate(spans):
                blocks[:, k, :, :e - s] = P[:, :, s:e]
            ranks = f.ranks(blocks.reshape(T * len(spans), height, width))
            ranks = ranks.reshape(T, len(spans))
            return [(dim, _exact_capped(r)) for dim, r in zip(dims.tolist(), ranks.tolist())]
        packed = _gf2_pack(S)
        out = []
        for t, flag in enumerate(independent):
            rows = packed[t * height:(t + 1) * height]
            echelon = [r for r in rows if r] if flag else _gf2_pivots(rows).values()
            out.append((len(echelon), _gf2_capped_ranks(
                [{}] * len(self._fields), self._m4rm(echelon), self._fields)))
        return out

    def _rows(self, row_sets):
        """The row sets as matrices, each checked to have as many columns as
        B has rows."""
        mats = [self.field._as_rows(rows) for rows in row_sets]
        for A in mats:
            if A.shape[1] != self.inner:
                raise DimensionMismatch(
                    f"cannot multiply {A.shape} by a factor of {self.inner} rows")
        return mats

    def products(self, M):
        """Over F_2, each row of M B as one int, column c of B in bit c."""
        if self.field.q != 2:
            raise FieldMismatch("packed products are taken over F_2 only")
        A = self.field.asmatrix(M)
        if A.shape[1] != self.inner:
            raise DimensionMismatch(
                f"cannot multiply {A.shape} by a factor of {self.inner} rows")
        return self._m4rm(_gf2_pack(A))

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


@lru_cache(maxsize=None)
def field_new(p, r=1):
    """Cached field constructor; repeated calls return the same object."""
    return GF(p, r)


def field_from_order(q):
    """Field of order q = p^r, inferring (p, r)."""
    q = int(q)
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


@dataclass(frozen=True)
class FieldElement:
    """A single field element: (field, encoded value) with operator sugar."""

    field: GF
    val: int

    def __post_init__(self):
        if not 0 <= self.val < self.field.q:
            raise EncodingOutOfRange(f"encoded value {self.val} outside [0, {self.field.q})")

    @property
    def coeffs(self):
        return self.field.coeffs(self.val)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.add(self.val, other.val))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.sub(self.val, other.val))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.mul(self.val, other.val))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.div(self.val, other.val))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.val, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.val))

    def __bool__(self):
        return self.val != 0

    def __str__(self):
        return str(self.val)
