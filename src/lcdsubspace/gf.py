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
Past 2**53 it is an int64 product, which numpy computes without BLAS.  The
result is reduced mod p (``& 1`` when p = 2), so every product is exact.
``matmul`` rejects entries outside [0, q) with ``EncodingOutOfRange``.

A right factor B multiplied by many row sets, as the projection decoder
multiplies every received word by the same complement coordinates, is
prepared once as a ``BlockRankFactor`` with the widths of its column blocks;
a call returns the rank of the rows and the rank of each column block of
rows B.  Over F_2, when the factor is built, each row of B is packed into
one Python int, column c in bit c, and every 8 rows of B get one 256-entry
table of the XORs of their subsets (the Four-Russians method, M4RM:
Albrecht, Bard and Hart, ACM TOMS 2010).  A call reduces the rows to an
echelon set, reads each as ceil(n / 8) bytes, XORs one table entry per byte
into a packed product row, and takes each block's rank off one shift and
one mask of each product row.  Python ints, not uint64 arrays, hold the
tables: a product row is then a few dozen XORs with no conversion, faster
than numpy gathers both for the 95 rows of a (192, 31, 4; 96) decode and
for a handful of rows.  Every other field keeps B and runs ``matmul`` and
``block_ranks``.

Elimination over F_2 (chosen by ``q == 2`` alone) packs each row into one
Python int, column 0 in the highest bit, so adding two rows is one XOR of
arbitrary width.  Rows are reduced into a pivot table keyed by leading bit
(the bit length of the row): ``rank`` stops there, ``rref`` back-substitutes
and unpacks into the same int64 matrix and pivot tuple as every other
field, and ``det`` is ``rank == n``.  ``stack_ranks`` ranks many stacks
[A_i; B_j] of the same matrices, as the LCD check and the distance scans
do, packing each matrix once: a stack is the concatenation of two lists of
packed rows.

Every other field runs one elimination core on a copy of the int64 matrix,
one pivot column at a time, with row operations bound once per field: on
F_p the update is ``(R - fac (x) row) % p`` (products below 2**40) and the
inverse ``pow(a, p - 2, p)``; with tables a product is one gather, and a
difference is an XOR when p = 2 and digitwise otherwise; above 2**16 the
public ``mul`` and ``sub`` do it.  ``rref`` reduces above and below each
pivot, while ``rank`` and ``det`` (the pivot product, negated for an odd
number of row swaps) eliminate below it only.  The core rejects entries
outside [0, q) with ``EncodingOutOfRange``, since a gather would silently
wrap a negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
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

MAX_FIELD_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16
# float types for matrix products, narrowest first, each with the power of
# two below which it holds every integer exactly (its mantissa width)
_EXACT_FLOATS = ((np.float32, 1 << 24), (np.float64, 1 << 53))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _gf2_mulmod(a, b, mod, deg):
    """Carry-less product of bit-packed F_2 polynomials, reduced mod `mod`."""
    res = 0
    while a:
        if a & 1:
            res ^= b
        a >>= 1
        b <<= 1
        if (b >> deg) & 1:
            b ^= mod
    return res


def _gf2_powmod(a, e, mod, deg):
    res = 1
    while e:
        if e & 1:
            res = _gf2_mulmod(res, a, mod, deg)
        a = _gf2_mulmod(a, a, mod, deg)
        e >>= 1
    return res


def _gf2_gcd(a, b):
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _is_irreducible_gf2(bits, r):
    xq = _gf2_powmod(2, 1 << r, bits, r)
    if xq != 2:
        return False
    for ell in _prime_factors(r):
        h = _gf2_powmod(2, 1 << (r // ell), bits, r) ^ 2
        if _gf2_gcd(bits, h) != 1:
            return False
    return True


def _is_irreducible(poly, p):
    """Rabin's test for a monic polynomial over F_p."""
    r = len(poly) - 1
    if r == 1:
        return True
    if p == 2:
        bits = 0
        for i, c in enumerate(poly):
            bits |= (c & 1) << i
        return _is_irreducible_gf2(bits, r)
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
    """Rows of a 0/1 matrix as ints; column c is bit 8*ceil(cols/8) - 1 - c."""
    if A.size == 0:
        return []
    nb = (A.shape[1] + 7) // 8
    # packbits is several times faster on booleans than on int64
    buf = np.packbits(A.astype(bool), axis=1).tobytes()
    return [int.from_bytes(buf[i:i + nb], "big") for i in range(0, len(buf), nb)]


def _gf2_pivots(rows):
    """Echelon basis of the span of packed rows: {leading bit length: row}."""
    table = {}
    for r in rows:
        while r:
            b = r.bit_length()
            p = table.get(b)
            if p is None:
                table[b] = r
                break
            r ^= p
    return table


def _gf2_field_ranks(rows, fields):
    """Rank of each bit field of the packed rows, a field being a (shift,
    width) pair: row r contributes (r >> shift) & (2**width - 1).  Equal
    values are reduced once, which pays where the rank is far below the
    number of rows, as in the blocks of a projection decode."""
    return [len(_gf2_pivots({(r >> s) & ((1 << w) - 1) for r in rows})) for s, w in fields]


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


class GF:
    """The finite field F_{p^r} with a deterministic modulus.

    Instances are cheap to compare (by (p, r)); use :func:`field_new` for a
    cached instance.  All arithmetic methods accept encoded ints or int64
    numpy arrays and broadcast like numpy; scalars in, scalar out.
    """

    def __init__(self, p, r=1):
        if r < 1 or int(r) != r:
            raise LcdError(f"extension degree must be a positive integer, got {r}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** r
        if q > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"order {q} exceeds {MAX_FIELD_ORDER}")
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

    def elements(self):
        return [FieldElement(self, v) for v in range(self.q)]

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
            if scalar:
                return pow(int(arr), self.p - 2, self.p)
            out = np.array([pow(int(v), self.p - 2, self.p) for v in arr.ravel()],
                           dtype=np.int64).reshape(arr.shape)
            return out
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
        p, r, q = self.p, self.r, self.q
        if p == 2:
            bits = sum(c << i for i, c in enumerate(self.modulus))

            def mul(a, b):
                return _gf2_mulmod(a, b, bits, r)
        else:
            def mul(a, b):
                return self.from_coeffs(
                    _poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, p))

        def power(a, e):
            result = 1
            while e:
                if e & 1:
                    result = mul(result, a)
                a = mul(a, a)
                e >>= 1
            return result

        order_factors = _prime_factors(q - 1)
        gen = next(g for g in range(1, q)
                   if all(power(g, (q - 1) // ell) != 1 for ell in order_factors))
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
        if A.size and (A.min() < 0 or A.max() >= self.q):
            raise EncodingOutOfRange(f"encoded entries must lie in [0, {self.q})")
        return A

    def matmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
        for M in (A, B):
            # as unsigned words a negative entry is past 2**63, so one max checks both ends
            if M.size and M.view(np.uint64).max() >= self.q:
                raise EncodingOutOfRange(f"encoded entries must lie in [0, {self.q})")
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
        """Exact integer product of int64 matrices with entries in [0, p).

        BLAS runs it in the narrowest float type that holds every partial
        sum exactly; numpy's int64 product (no BLAS) is the fallback.
        """
        bound = A.shape[1] * (self.p - 1) ** 2
        for dtype, exact in _EXACT_FLOATS:
            if bound < exact:
                return (A.astype(dtype) @ B.astype(dtype)).astype(np.int64)
        return A @ B

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

    def _elimination_ops(self):
        """(scale, elim, inv) for the q != 2 core, bound once per field:
        scale(row, s) = s row, elim(T, fac, row) = T - fac (x) row, and
        inv(a) the inverse of a nonzero int."""
        if self._ops is None:
            p, q = self.p, self.q
            if self.r == 1:
                # entries lie below 2**20, so products stay below 2**40
                self._ops = (lambda row, s: row * s % p,
                             lambda T, fac, row: (T - fac[:, None] * row) % p,
                             lambda a: pow(a, p - 2, p))
            elif self._ensure_tables():
                exp, log = self._exp, self._log
                sub = np.bitwise_xor if p == 2 else self._sub_digits
                self._ops = (lambda row, s: exp[log[row] + log[s]],
                             lambda T, fac, row: sub(T, exp[log[fac][:, None] + log[row]]),
                             lambda a: int(exp[q - 1 - log[a]]))
            else:
                self._ops = (self.mul,
                             lambda T, fac, row: self.sub(T, self.mul(fac[:, None], row)),
                             self.inv)
        return self._ops

    def _eliminate(self, M, full):
        """Row-reduce a copy of M over a field with q != 2.

        full: clear each pivot column above the pivot too, so R is the rref;
        otherwise below it only (forward elimination), all rank and det need.
        Returns (R, pivots, pivot values before scaling, row swaps).
        """
        R = self._as_rows(M).copy()
        if R.size and (R.min() < 0 or R.max() >= self.q):
            raise EncodingOutOfRange(f"encoded entries must lie in [0, {self.q})")
        scale, elim, inv = self._elimination_ops()
        rows, cols = R.shape
        pivots, values, swaps = [], [], 0
        for c in range(cols):
            rr = len(pivots)
            if rr == rows:
                break
            nz = R[rr:, c].nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                pr = rr + int(nz[0])
                R[[rr, pr]] = R[[pr, rr]]
                swaps += 1
            pv = int(R[rr, c])
            if pv != 1:
                R[rr, c:] = scale(R[rr, c:], inv(pv))
            # rows at and below rr are zero left of c, so only columns c: change;
            # after the swap the nonzero entries below the pivot are at nz[1:]
            tgt = rr + nz[1:]
            if full:
                tgt = np.concatenate([R[:rr, c].nonzero()[0], tgt])
            if tgt.size:
                R[tgt, c:] = elim(R[tgt, c:], R[tgt, c], R[rr, c:])
            pivots.append(c)
            values.append(pv)
        return R, tuple(pivots), values, swaps

    def rref(self, M):
        """Reduced row echelon form.  Returns (R, pivots)."""
        if self.q == 2:
            return _gf2_rref(self._as_rows(M))
        R, pivots, _, _ = self._eliminate(M, full=True)
        return R, pivots

    def rank(self, M):
        if self.q == 2:
            return len(_gf2_pivots(_gf2_pack(self._as_rows(M))))
        return len(self._eliminate(M, full=False)[1])

    def stack_ranks(self, tops, bottoms, pairs):
        """rank([tops[i]; bottoms[j]]) for each (i, j) of pairs, lazily.

        Every matrix needs the same number of columns.  Over F_2 each one is
        packed once, not once per pair, and a stack is the concatenation of
        two lists of packed rows; every other field stacks and ranks.
        """
        tops = [self._as_rows(A) for A in tops]
        bottoms = [self._as_rows(A) for A in bottoms]
        if len({A.shape[1] for A in tops + bottoms}) > 1:
            raise DimensionMismatch("stacked matrices need the same number of columns")
        if self.q != 2:
            return (self.rank(np.vstack([tops[i], bottoms[j]])) for i, j in pairs)
        tops = [_gf2_pack(A) for A in tops]
        bottoms = [_gf2_pack(A) for A in bottoms]
        return (len(_gf2_pivots(tops[i] + bottoms[j])) for i, j in pairs)

    def block_ranks(self, M, widths):
        """Ranks of the consecutive column blocks of M, of the given widths."""
        A = self._as_rows(M)
        spans = _block_spans(widths, A.shape[1])
        if self.q != 2:
            return [self.rank(A[:, s:e]) for s, e in spans]
        # pack every row once; a block is a shift and a mask of the packed row
        top = 8 * ((A.shape[1] + 7) // 8)
        return _gf2_field_ranks(_gf2_pack(A), [(top - e, e - s) for s, e in spans])

    def det(self, M):
        A = np.asarray(M, dtype=np.int64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("determinant needs a square matrix")
        n = A.shape[0]
        if self.q == 2:
            return int(self.rank(A) == n)
        _, pivots, values, swaps = self._eliminate(A, full=False)
        if len(pivots) < n:
            return 0
        det = self.neg(1) if swaps % 2 else 1
        for v in values:
            det = self.mul(det, v)
        return det

    def kernel(self, M):
        """Basis of the right null space {x : M x = 0}, rows in rref form."""
        A = self._as_rows(M)
        n = A.shape[1]
        if A.shape[0] == 0:
            return np.eye(n, dtype=np.int64)
        R, piv = self.rref(A)
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

    ``factor(rows)`` returns (rank of rows, [rank of block i of rows B]) for
    consecutive column blocks of B of the given widths.  The rows are trusted
    to hold encodings in [0, q), and with ``independent=True`` to be linearly
    independent, as a Subspace basis is, so they are not reduced first; B is
    checked when the factor is built.
    Over F_2 the product runs on Four-Russians tables, 32 bits per entry of
    B (see the module docstring); every other field keeps B and runs
    ``matmul`` and ``block_ranks`` on the independent rows or on an echelon
    basis of them.
    """

    def __init__(self, field, B, widths):
        B = field.asmatrix(B)
        spans = _block_spans(widths, B.shape[1])
        self.field = field
        self.inner = B.shape[0]
        self.widths = list(widths)
        if field.q != 2:
            self._B = B
            return
        # column c of B is bit c of its row's int, so block (s, e) of a
        # product row is its bits s to e - 1
        self._fields = [(s, e - s) for s, e in spans]
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

    def __call__(self, rows, independent=False):
        f = self.field
        A = f._as_rows(rows)
        if A.shape[1] != self.inner:
            raise DimensionMismatch(f"cannot multiply {A.shape} by a factor of {self.inner} rows")
        # the span of the rows decides every rank below, so any basis of it
        # serves: the rows themselves when they are independent (a Subspace
        # basis), otherwise an echelon set (no back-substitution), whose size
        # is the rank of the rows
        if f.q != 2:
            if not independent:
                R, pivots, _, _ = f._eliminate(A, full=False)
                A = R[:len(pivots)]
            return len(A), f.block_ranks(f.matmul(A, self._B), self.widths)
        echelon = _gf2_pack(A) if independent else _gf2_pivots(_gf2_pack(A)).values()
        groups = len(self._tables)
        product = []
        for r in echelon:
            acc = 0
            # byte g of the row picks one entry of table g
            for table, x in zip(self._tables, r.to_bytes(groups, "big")):
                acc ^= table[x]
            product.append(acc)
        return len(echelon), _gf2_field_ranks(product, self._fields)


@lru_cache(maxsize=None)
def field_new(p, r=1):
    """Cached field constructor; repeated calls return the same object."""
    return GF(p, r)


def field_from_order(q):
    """Field of order q = p^r, inferring (p, r)."""
    q = int(q)
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
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
