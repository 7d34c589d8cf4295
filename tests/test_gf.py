import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

import oracles
from lcdsubspace.errors import (
    DimensionMismatch,
    DivisionByZero,
    EncodingOutOfRange,
    FieldMismatch,
    FieldTooLarge,
    LcdError,
    NotAnInteger,
    NotPrime,
)
from lcdsubspace import gf
from lcdsubspace.codes import ProjectionDecoder, SubspaceCode, decode_naive, decode_naive_many
from lcdsubspace.gf import GF, BlockRankFactor, field_from_order, field_new, padded_stack
from lcdsubspace.subspaces import Subspace


def test_construction_validation():
    with pytest.raises(NotPrime):
        field_new(4, 1)
    with pytest.raises(NotPrime):
        field_new(1, 1)
    with pytest.raises(FieldTooLarge):
        field_new(2, 21)
    # the boundary order 2^20 itself is allowed
    assert field_new(2, 20).q == 1 << 20
    assert field_from_order(9).q == 9
    with pytest.raises(NotPrime):
        field_from_order(12)


def test_non_integral_or_str_characteristics_are_rejected():
    # int(p) once truncated 2.5 to 2 and 7.9 to 7, and a str p or r failed
    # its comparison with a bare TypeError
    for p in (2.5, 7.9, "2"):
        with pytest.raises(NotPrime):
            GF(p)
        with pytest.raises(NotPrime):
            field_new(p)
    with pytest.raises(LcdError, match="extension degree"):
        GF(2, "2")
    assert GF(2.0) == GF(2)


@pytest.mark.parametrize("r", [1.0, 2.5, True, "1"])
def test_non_integer_extension_degrees_are_rejected(r):
    # field_new(2, 1.0) once failed with a bare TypeError, and True was read
    # as 1; GF(2) is cached first, so no cache hit may answer for them
    field_new(2, 1)
    with pytest.raises(NotAnInteger, match="extension degree"):
        field_new(2, r)
    assert field_new(2, np.int64(2)) == GF(2, 2)


def test_oversized_fields_are_rejected_before_factoring(monkeypatch):
    # trial division of a prime near 10**14 takes seconds, so a p past the
    # largest order must be rejected before the factoriser is called
    def refuse(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(gf, "_prime_factors", refuse)
    for p, r in ((10 ** 14 + 31, 1), (10 ** 12 + 39, 2), ((1 << 20) + 7, 1)):
        with pytest.raises(FieldTooLarge):
            GF(p, r)
    # an order past the largest is too large, prime power or not
    for q in (10 ** 14 + 31, 3 << 20, (1 << 20) + 1):
        with pytest.raises(FieldTooLarge):
            field_from_order(q)
    monkeypatch.undo()
    # a small p is factored first, and a huge r then never raised to
    with pytest.raises(FieldTooLarge):
        GF(2, 10 ** 9)
    with pytest.raises(NotPrime):
        GF(4, 11)


def test_field_new_is_cached():
    assert field_new(3, 2) is field_new(3, 2)


def test_not_prime_orders_are_rejected():
    for p in (0, 1, 4, 1048575):
        with pytest.raises(NotPrime):
            GF(p)
    for p in (2, 3, 1048573):
        assert GF(p).q == p


def test_pinned_moduli():
    # lexicographically smallest monic irreducible, constant term first
    assert field_new(2, 2).modulus == (1, 1, 1)
    assert field_new(3, 2).modulus == (1, 0, 1)
    assert field_new(2, 3).modulus == (1, 0, 1, 1)


@pytest.mark.parametrize("p, r", [(2, r) for r in range(2, 21)] + [(3, 2), (3, 5), (5, 3)])
def test_modulus_is_the_first_irreducible_candidate(p, r):
    # the documented order: coefficient tuples (c_0, ..., c_{r-1}) of the
    # monic x^r + ... compared lexicographically, constant term first
    first = next(tail + (1,) for tail in product(range(p), repeat=r)
                 if oracles.is_irreducible(tail + (1,), p))
    assert field_new(p, r).modulus == first


def test_pinned_small_products(f3, f4):
    # x * (x + 1) = x^2 + x = 1 under x^2 = x + 1
    assert f4.mul(2, 3) == 1
    assert f3.inv(2) == 2


def test_axioms_exhaustive(all_fields):
    for f in all_fields:
        els = list(range(f.q))
        for a, b in product(els, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in product(els, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in els:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_prime_fields_match_integer_arithmetic(f2, f3, f5):
    for f in (f2, f3, f5):
        p = f.p
        for a, b in product(range(p), repeat=2):
            assert f.add(a, b) == (a + b) % p
            assert f.mul(a, b) == (a * b) % p
            assert f.sub(a, b) == (a - b) % p
        for a in range(1, p):
            assert f.inv(a) == pow(a, p - 2, p)


def test_extension_fields_match_polynomial_oracle(f4, f8, f9):
    for f in (f4, f8, f9):
        for a, b in product(range(f.q), repeat=2):
            assert f.mul(a, b) == oracles.ext_mul(f, a, b)
        for a in range(1, f.q):
            assert f.inv(a) == oracles.ext_inv(f, a)
    # fields past 2**16, up to the largest order, whose tables are written
    # in many steps of 2**14 powers: elementwise products and inverses on
    # broadcast arrays, and matrix products expanding either operand, with
    # empty shapes, all recomputed from oracle polynomial products
    rng = np.random.default_rng(17)
    for f in (field_new(2, 17), field_new(3, 11), field_new(2, 20)):
        a, b = rng.integers(0, f.q, (4, 1)), rng.integers(0, f.q, (1, 5))
        a[0, 0], b[0, 0] = 0, f.q - 1
        got = f.mul(a, b)
        assert got.shape == (4, 5)
        assert got.tolist() == [[oracles.ext_mul(f, x, y) for y in b[0].tolist()]
                                for x in a[:, 0].tolist()]
        assert f.mul(int(a[1, 0]), b).tolist() == got[1:2].tolist()
        units = rng.integers(1, f.q, (3, 4))
        units[0, 0] = f.q - 1
        inv = f.inv(units)
        # an inverse is unique, so a b = 1 by the oracle pins it
        assert all(oracles.ext_mul(f, x, y) == 1
                   for x, y in zip(units.ravel().tolist(), inv.ravel().tolist()))
        assert f.inv(int(units[0, 1])) == int(inv[0, 1])
        for m, k, n in ((2, 3, 6), (6, 3, 2), (0, 3, 4), (3, 4, 0), (3, 0, 4)):
            A, B = rng.integers(0, f.q, (m, k)), rng.integers(0, f.q, (k, n))
            assert f.matmul(A, B).tolist() == _exact_product(f, A, B)


def test_division_and_pow(all_fields):
    for f in all_fields:
        for a in range(f.q):
            with pytest.raises(DivisionByZero):
                f.inv(0)
            if a:
                assert f.div(1, a) == f.inv(a)
                assert f.pow(a, f.q - 1) == 1
            assert f.pow(a, 0) == 1
            acc = 1
            for e in range(1, 5):
                acc = f.mul(acc, a)
                assert f.pow(a, e) == acc


def test_tables_are_powers_of_the_smallest_primitive_element():
    # rebuilt here by one independent oracle product per power
    for p, r in ((2, 4), (2, 8), (2, 12), (3, 5)):
        f = GF(p, r)
        q = f.q

        def order(g):
            x, k = g, 1
            while x != 1:
                x, k = oracles.ext_mul(f, x, g), k + 1
            return k

        gen = next(g for g in range(1, q) if order(g) == q - 1)
        powers = [1]
        for _ in range(q - 2):
            powers.append(oracles.ext_mul(f, powers[-1], gen))
        assert f.mul(gen, 1) == gen  # builds the tables
        assert f.generator == gen
        assert f._exp[:q - 1].tolist() == powers
        assert [int(f._log[v]) for v in powers] == list(range(q - 1))


@pytest.mark.parametrize("p", [3, 5, 1048573])
def test_prime_field_inverses_read_the_tables(p):
    # inv and div over F_p come off its log/exp tables: scalars and arrays
    # against Fermat's a**(p - 2) mod p, and 0 still has no inverse
    f = field_new(p)
    rng = np.random.default_rng(p)
    units = np.concatenate([np.arange(1, min(p, 40)), rng.integers(1, p, 40), [p - 1]])
    want = [pow(int(a), p - 2, p) for a in units]
    assert f.inv(units).tolist() == want
    assert f.inv(units[:6].reshape(2, 3)).tolist() == [want[:3], want[3:6]]
    assert [f.inv(int(a)) for a in units] == want
    assert type(f.inv(int(units[0]))) is int
    b = rng.integers(0, p, units.shape)
    assert f.div(b, units).tolist() == [int(x) * w % p for x, w in zip(b, want)]
    assert f.div(int(b[1]), int(units[1])) == int(b[1]) * want[1] % p
    for zero in (0, np.array([1, 0]), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(DivisionByZero):
            f.inv(zero)
        with pytest.raises(DivisionByZero):
            f.div(1, zero)


def test_largest_tables_are_written_in_place():
    # exp is written into its final buffer, at most 2**14 powers a step, so
    # the build makes no digit array of all 2**20 elements: the tables keep
    # 4 (q - 1) + 1 exp and q log entries, 40 MiB, at a peak under 56 MiB
    f = GF(2, 20)
    q = f.q
    tracemalloc.start()
    try:
        f._tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 << 20
    assert f._exp.shape == (4 * (q - 1) + 1,) and f._log.shape == (q,)
    # the layout, spot-checked: powers of g across the step boundaries, a
    # second period, the zero tail and the sentinel log[0]
    exp, log = f._exp, f._log
    for i in (0, 1, (1 << 14) - 1, 1 << 14, 1 << 15, 3 << 14, q - 3):
        assert int(exp[i + 1]) == oracles.ext_mul(f, int(exp[i]), f.generator)
        assert exp[i + q - 1] == exp[i] and log[exp[i]] == i
    assert log[0] == 2 * (q - 1) and not exp[2 * (q - 1):].any()


def test_scalar_ops_accept_arrays(f9):
    a = np.array([0, 1, 5, 8])
    b = np.array([3, 3, 3, 3])
    out = f9.mul(a, b)
    assert [int(x) for x in out] == [f9.mul(int(x), 3) for x in a]


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "inv", "neg", "pow"])
def test_scalar_ops_reject_non_elements(f3, op):
    # a cast once truncated 1.5 to 1, accepted 5 and 7 over GF(3) and failed
    # on 2**70 with a bare OverflowError; every operand is checked, on
    # scalars and arrays alike
    call = {"inv": lambda a: f3.inv(a), "neg": lambda a: f3.neg(a),
            "pow": lambda a: f3.pow(a, 2)}.get(op, lambda a: getattr(f3, op)(a, 1))
    for bad in (1.5, 1.7, 5, -1, 2 ** 70, True, np.array([1, 3]), np.array([1.0, 2.0])):
        with pytest.raises(EncodingOutOfRange):
            call(bad)
    if op in ("add", "sub", "mul", "div"):
        for bad in (7, 2.0, 2 ** 70):
            with pytest.raises(EncodingOutOfRange):
                getattr(f3, op)(1, bad)
    assert call(1) == {"add": 2, "sub": 0, "mul": 1, "div": 1, "inv": 1, "neg": 2, "pow": 1}[op]
    assert call(np.int64(2)) == call(np.array(2)) == call(2)
    assert call(np.array([1, 2])).tolist() == [call(1), call(2)]


def test_padded_stack_rejects_non_integer_matrices():
    # a float matrix beside an integer one was truncated, and a lone one
    # came back as floats
    ints = np.zeros((2, 1), dtype=np.int64)
    for mats in ([np.array([[1.5, 2.7]]), ints], [np.array([[1.5, 2.7]])],
                 [np.array([[1.0, 0.0]]), np.array([[1, 1]])], [np.array([[True]]), ints]):
        with pytest.raises(EncodingOutOfRange):
            padded_stack(mats)
    S = padded_stack([np.array([[1, 2]]), ints])
    assert S.dtype == np.int64 and S.tolist() == [[[1, 2], [0, 0]], [[0, 0], [0, 0]]]


def test_rref_pinned_examples(f2, f3):
    R, piv = f2.rref([[1, 1], [1, 1]])
    assert R.tolist() == [[1, 1], [0, 0]]
    assert piv == (0,)
    # rows are scalar multiples over F_3, so the rank is 1
    R, piv = f3.rref([[1, 2], [2, 1]])
    assert piv == (0,)
    assert R.tolist()[0] == [1, 2]
    assert f3.rank([[1, 2], [2, 1]]) == 1


def _gf2_boundary_matrices(rng):
    """0/1 matrices whose widths cross the byte and 64-bit packing boundaries:
    empty, all-zero, random, and tall rank-deficient (a product C B)."""
    yield np.zeros((0, 5), dtype=np.int64)
    for n in (1, 7, 8, 9, 62, 63, 64, 65, 130):
        yield np.zeros((4, n), dtype=np.int64)
        for k in (1, 5, 17):
            yield np.array([[rng.randrange(2) for _ in range(n)] for _ in range(k)])
        r = min(n, 6)
        C = np.array([[rng.randrange(2) for _ in range(r)] for _ in range(70)])
        B = np.array([[rng.randrange(2) for _ in range(n)] for _ in range(r)])
        yield C @ B % 2


def _assert_matches_oracle(f, M):
    R, piv = f.rref(M)
    oR, opiv = oracles.rref(f, np.atleast_2d(M).tolist())
    assert piv == opiv
    assert R.tolist() == oR
    assert f.rank(M) == len(piv)
    return R, piv


def test_rref_matches_oracle_randomized(all_fields):
    rng = random.Random(20260825)
    for f in all_fields:
        for _ in range(60):
            k = rng.randrange(1, 5)
            n = rng.randrange(1, 6)
            M = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            _assert_matches_oracle(f, M)
        # a single row given as a 1-D vector
        _assert_matches_oracle(f, [rng.randrange(f.q) for _ in range(6)])

    f2 = field_new(2)
    _assert_matches_oracle(f2, [1, 0, 1, 1, 0, 0, 0, 0, 1])
    for A in _gf2_boundary_matrices(rng):
        k, n = A.shape
        R, piv = _assert_matches_oracle(f2, A)
        # kernel: the right dimension, annihilated by A, and in rref of full
        # row rank, so it is the canonical basis of the whole null space
        K = f2.kernel(A)
        assert K.shape == (n - len(piv), n)
        assert not (A @ K.T % 2).any()
        oK, oKpiv = oracles.rref(f2, K.tolist())
        assert oK == K.tolist() and len(oKpiv) == len(K)
        # det of the leading square block
        m = min(k, n)
        S = A[:m, :m]
        want = (oracles.det_leibniz(f2, S.tolist()) if m <= 6
                else int(oracles.rank(f2, S.tolist()) == m))
        assert f2.det(S) == want


@pytest.mark.parametrize("p, r", [(5, 1), (2, 16), (2, 17), (1048573, 1)])
def test_elimination_matches_oracle_at_the_boundaries(p, r):
    # 2**16 and 2**17 have tables written in several steps of 2**14 powers;
    # 1048573 is the largest prime below 2**20, inverted off the largest
    # prime-field tables
    f = field_new(p, r)
    rng = random.Random(p + r)

    def rand(k, n):
        return [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]

    mats = [rand(k, n) for k, n in ((1, 1), (2, 3), (3, 2), (4, 4), (3, 5), (5, 3))]
    mats.append([[0] * 3 for _ in range(3)])
    # a zero corner forces a row swap, so det must flip its sign
    M = rand(4, 4)
    M[0][0] = 0
    mats.append(M)
    # rank deficient: one row a multiple of another, one row zero
    M = rand(4, 5)
    M[2] = f.mul(np.array(M[0]), rng.randrange(1, f.q)).tolist()
    M[3] = [0] * 5
    mats.append(M)
    mats.append([row[:4] for row in M])
    for M in mats:
        _assert_matches_oracle(f, M)
        if len(M) == len(M[0]):
            assert f.det(M) == oracles.det_leibniz(f, M)


def test_elimination_rejects_encodings_outside_the_field(f2, f3, f4, f9):
    # a table gather would wrap -1 to the last entry, and packing GF(2) rows
    # would read any nonzero entry as 1; a cast to int64 would truncate 1.5
    # to 1 and read True and object entries as integers
    ok = np.eye(2, dtype=np.int64)
    for f in (f2, f3, f4, f9, field_new(2, 17)):
        whole = Subspace.full(f, 2)
        code = SubspaceCode([Subspace(f, 2, [[1, 0]])])
        decoder = ProjectionDecoder(code)
        bads = [[[1, 0], [0, bad]] for bad in sorted({-1, f.q, f.q + 1})]
        bads += [[[1, 0], [0, 1.5]], np.eye(2), np.eye(2, dtype=bool),
                 np.eye(2, dtype=np.int64).astype(object), [[1, 0], [0, 2 ** 70]]]
        for M in bads:
            # a Subspace operand is checked when it is made; a stack of
            # received words by each batched rank form that takes it, once:
            # block_ranks multiplies it by the unchecked GF._product.  A
            # stack pairs M with an identity of its dtype, which numpy would
            # otherwise promote to M's (int64 for bool M)
            I = ok.astype(np.asarray(M).dtype)
            ops = [f.rref, f.rank, f.det, f.kernel, f.asmatrix, lambda M: f.ranks([I, M]),
                   lambda M: f.matmul(M, ok), lambda M: f.matmul(ok, M),
                   lambda M: BlockRankFactor(f, ok, [1, 1]).block_ranks([I, M]),
                   lambda M: f.excess_rank(whole, Subspace(f, 2, M)),
                   lambda M: f.excess_rank(Subspace(f, 2, M), whole, 1),
                   lambda M: f.excess_ranks([whole], [I, M]),
                   lambda M: f.excess_ranks([Subspace(f, 2, M)], [ok]),
                   lambda M: decode_naive(code, M), decoder.decode,
                   lambda M: decode_naive_many(code, [ok, M]),
                   lambda M: decoder.decode_many([ok, M])]
            if f.q == 2:
                ops += [lambda M: BlockRankFactor(f, ok, [1, 1]).capped([I, M]),
                        lambda M: f.capped_stack_ranks([whole], [I, M])]
            for op in ops:
                with pytest.raises(EncodingOutOfRange):
                    op(M)
    # an empty list, which numpy reads as floats, holds no entry to reject
    assert f3.rank([]) == 0 and Subspace(f3, 2, []).dim == 0
    assert f3.ranks(np.zeros((2, 0, 3))).tolist() == [0, 0]


# every elimination regime: GF(2)'s packed rows, prime and extension tables
# (odd and even p, and a tabled difference for GF(9)), and the large orders
# 2**16, 2**17 and 1048573, whose tables are written in several steps
STACK_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 16), (2, 17), (1048573, 1)]


def _stack_cases(f, rng):
    """Lists of matrices: empty, zero, repeated-row and random ones of mixed
    shapes."""
    small = f.q > 1 << 16  # the oracle inverts by exhaustive search

    def rand(k, n):
        return rng.integers(0, f.q, (k, n))

    shapes = [(1, 1), (2, 3), (3, 2)] if small else \
        [(1, 1), (1, 6), (2, 3), (3, 2), (3, 5), (4, 4), (5, 3), (6, 8)]
    mats = [rand(k, n) for k, n in shapes]
    mats.append(np.zeros((3, 4), dtype=np.int64))
    R = rand(4, 5)
    R[2] = R[0]                                     # a repeated row
    R[3] = f.mul(R[1], int(rng.integers(1, f.q)))   # a multiple of another
    mats.append(R)
    yield mats
    yield [np.zeros((0, 4), dtype=np.int64), rand(2, 4), np.zeros((3, 0), dtype=np.int64)]
    if not small:
        yield [rand(3, 4) for _ in range(9)]
    yield []


@pytest.mark.parametrize("p, r", STACK_FIELDS)
def test_ranks_and_stacks_of_one_match_oracle(p, r):
    f = field_new(p, r)
    rng = np.random.default_rng(p * 31 + r)
    for mats in _stack_cases(f, rng):
        want = [oracles.rank(f, A.tolist()) for A in mats]
        S = padded_stack(mats)
        # zero rows and zero columns as padding change no rank
        assert f.ranks(S).tolist() == want
        if f.q <= 1 << 16:
            assert f.ranks(np.pad(S, ((0, 0), (0, 2), (0, 1)))).tolist() == want
        for A, w in zip(mats, want):
            k, n = A.shape
            if not k:
                continue
            R, piv = f.rref(A)
            oR, opiv = oracles.rref(f, A.tolist())
            assert (R.tolist(), piv) == (oR, opiv)
            assert f.rank(A) == w
            if k == n:
                assert f.det(A) == oracles.det_leibniz(f, A.tolist())
    # B = 0, m = 0 and n = 0 as bare shapes
    for shape in ((0, 3, 4), (2, 0, 4), (2, 3, 0)):
        assert f.ranks(np.zeros(shape, dtype=np.int64)).tolist() == [0] * shape[0]
    with pytest.raises(DimensionMismatch):
        f.ranks(np.zeros((2, 3), dtype=np.int64))


def _row_core_stacks(f, rng):
    """Stacks for the row-by-row rank core: rows that pivot beside zero
    rows, tall matrices, pivots in the last column alone, stacks of one."""

    def rand(*shape):
        return rng.integers(0, f.q, shape)

    # at every row i some matrices pivot and others have a zero row: row i
    # of matrix b is zero from the start when b = i (mod 5), or once row 0
    # has been cleared from it when it repeats row 0 (b = i + 1 (mod 5))
    mixed = rand(10, 4, 6)
    for b, A in enumerate(mixed):
        if b % 5 < 4:
            A[b % 5] = 0
        if 0 < (b - 1) % 5 < 4:
            A[(b - 1) % 5] = A[0]
    yield mixed
    yield rand(6, 6, 3)                       # tall: ranked as 3 x 6
    yield rand(3, 5, 1)
    last = np.zeros((4, 3, 5), dtype=np.int64)
    last[:, :, -1] = rand(4, 3)               # the only pivot in the last column
    last[0] = 0
    last[1, 1:, -1] = 0
    yield last
    yield rand(1, 3, 5)                       # stacks of one, wide and tall
    yield rand(1, 4, 2)
    yield np.zeros((1, 2, 3), dtype=np.int64)


@pytest.mark.parametrize("p, r", STACK_FIELDS)
def test_row_core_matches_oracle(p, r):
    f = field_new(p, r)
    rng = np.random.default_rng(p * 17 + r)
    for S in _row_core_stacks(f, rng):
        want = [oracles.rank(f, A.tolist()) for A in S]
        assert f.ranks(S).tolist() == want
        assert f.ranks(S.transpose(0, 2, 1)).tolist() == want


@pytest.mark.parametrize("p, r", [pr for pr in STACK_FIELDS if pr != (2, 1)])
def test_row_core_takes_one_update_per_row_but_the_last(p, r, monkeypatch):
    # the core clears each row's pivot column below it in one update for the
    # whole stack, with no search, after transposing a tall stack
    f = field_new(p, r)
    div_rows, elim = f._elimination_ops()
    updates = []

    def spy(T, fac, P):
        updates.append(T.shape[1])
        elim(T, fac, P)

    monkeypatch.setattr(f, "_ops", (div_rows, spy))
    rng = np.random.default_rng(p + r)
    for B, m, n in ((5, 4, 6), (5, 6, 3), (4, 5, 5), (1, 3, 5), (1, 5, 2), (3, 1, 4), (3, 4, 1)):
        S = rng.integers(0, f.q, (B, m, n))
        S[0, 0] = 0
        updates.clear()
        assert f.ranks(S).tolist() == [oracles.rank(f, A.tolist()) for A in S]
        assert len(updates) <= min(m, n) - 1


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (2, 2)])
def test_stacked_elimination_on_larger_stacks(p, r):
    # many matrices in one stack, most pivoting in different columns from
    # different rows, some rank deficient: each must match the oracle, and
    # a stack of one of each must give the same rank
    f = field_new(p, r)
    rng = np.random.default_rng(7 * p + r)
    mats = []
    for _ in range(40):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        A = rng.integers(0, f.q, (k, n))
        A[rng.random((k, n)) < 0.4] = 0     # sparse: pivots move about
        if k > 2:
            A[-1] = A[0]
        mats.append(A)
    want = [oracles.rank(f, A.tolist()) for A in mats]
    assert f.ranks(padded_stack(mats)).tolist() == want
    assert [f.rank(A) for A in mats] == want
    tops, bottoms = mats[:20], [A[:, :1] for A in mats[20:]]
    tops = [np.hstack([A, np.zeros((len(A), 8 - A.shape[1]), dtype=np.int64)]) for A in tops]
    bottoms = [np.hstack([A, rng.integers(0, f.q, (len(A), 7))]) for A in bottoms]
    pairs = [(i, j) for i in range(20) for j in range(20)]
    want = [oracles.rank(f, np.vstack([tops[i], bottoms[j]]).tolist()) for i, j in pairs]
    tops, bottoms = ([Subspace(f, 8, A) for A in side] for side in (tops, bottoms))
    assert [tops[i].dim + f.excess_rank(tops[i], bottoms[j]) for i, j in pairs] == want


@pytest.mark.parametrize("n", [7, 8, 9, 16, 64])
def test_gf2_ranks_either_side_of_the_stacked_boundary(f2, f3, n):
    # GF(2) stacks of up to 8 columns run on one word per row, wider ones on
    # rows packed into ints one matrix at a time: both must give the
    # oracle's ranks, and f.rank's packed ranks, with zero rows and zero
    # columns as padding; the word kernel itself takes up to 64 columns
    assert f2.stacked(n) == (n <= 8) and f3.stacked(n)
    rng = np.random.default_rng(40 + n)
    mats = [rng.integers(0, 2, (k, n)) for k in (1, 2, 5, 8, 9, 12)]
    mats += [np.zeros((3, n), dtype=np.int64), np.eye(n, dtype=np.int64)]
    mats.append(np.vstack([mats[2], mats[2][:2] ^ mats[2][2:4]]))   # dependent rows
    mats.append(np.zeros((0, n), dtype=np.int64))
    want = [oracles.rank(f2, A.tolist()) for A in mats]
    assert [f2.rank(A) for A in mats] == want
    S = padded_stack(mats)
    assert f2.ranks(S).tolist() == want
    assert gf._gf2_word_ranks(gf._gf2_words(S), n).tolist() == want
    # zero rows, and zero columns up to the next width, change no rank
    for rows, cols in ((0, 0), (3, 0), (0, 1), (2, 1)):
        padded = np.pad(S, ((0, 0), (0, rows), (0, cols)))
        assert f2.stacked(padded.shape[2]) == (n + cols <= 8)
        assert f2.ranks(padded).tolist() == want
    for shape in ((0, 3, n), (2, 0, n), (2, 3, 0)):
        assert f2.ranks(np.zeros(shape, dtype=np.int64)).tolist() == [0] * shape[0]
    for bad in (-1, 2, 3):
        B = S.copy()
        B[1, 0, n - 1] = bad
        with pytest.raises(EncodingOutOfRange):
            f2.ranks(B)


def _packed_kernel_cases(n, rng):
    """GF(2) matrices of n columns and heights 0 to 10: random and sparse
    ones, zero rows among others, all-zero matrices, identities, and a
    single 1 in column 0 and in column n - 1."""
    for k in range(11):
        yield rng.integers(0, 2, (k, n))
        yield (rng.random((k, n)) < 0.2).astype(np.int64)
        A = rng.integers(0, 2, (k, n))
        A[::2] = 0
        yield A
        yield np.zeros((k, n), dtype=np.int64)
        for col in (0, n - 1):
            A = np.zeros((k, n), dtype=np.int64)
            A[k // 2:k // 2 + 1, col] = 1
            yield A
    for k in range(1, n + 1):
        yield np.eye(k, n, dtype=np.int64)
        yield np.eye(n, dtype=np.int64)[::-1][:k]


@pytest.mark.parametrize("n", range(1, 9))
def test_packed_gf2_kernel_matches_oracle(f2, n):
    # ranks of GF(2) stacks of up to 8 columns run on one word per row; each
    # matrix alone (B = 1), the whole list as one stack, and B = 0 must give
    # the oracle's ranks, as must the word kernel on its own
    rng = np.random.default_rng(900 + n)
    mats = list(_packed_kernel_cases(n, rng))
    want = [oracles.rank(f2, A.tolist()) for A in mats]
    assert [f2.ranks(A[None]).tolist() for A in mats] == [[w] for w in want]
    S = padded_stack(mats)
    assert f2.ranks(S).tolist() == want
    words = gf._gf2_words(S)
    assert words.dtype == np.uint64 and words.shape == (S.shape[1], len(mats))
    assert gf._gf2_word_ranks(words, n).tolist() == want
    for height in range(11):
        assert f2.ranks(np.zeros((0, height, n), dtype=np.int64)).tolist() == []


def test_kernel_pinned_and_oracle(f2, f3, f9):
    K = f2.kernel([[1, 1]])
    assert K.tolist() == [[1, 1]]
    # no rows: every vector is in the kernel
    for f in (f2, f3, f9):
        for n in (1, 4):
            assert f.kernel(np.zeros((0, n), dtype=np.int64)).tolist() == np.eye(n).tolist()
    rng = random.Random(7)
    for f in (f2, f3):
        for _ in range(40):
            k = rng.randrange(1, 4)
            n = rng.randrange(1, 5)
            M = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            K = f.kernel(M)
            oK = oracles.kernel_basis(f, M, n)
            assert len(K) == len(oK)
            # every kernel row really is annihilated
            A = f.asmatrix(M)
            for v in K:
                assert not f.matmul(A, np.array(v)[:, None]).any()
            assert f.rank(K.tolist() + oK) == len(oK) if len(oK) else True


def test_det_matches_leibniz(all_fields):
    rng = random.Random(99)
    for f in all_fields:
        for _ in range(25):
            n = rng.randrange(1, 5)
            M = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
            assert int(f.det(M)) == oracles.det_leibniz(f, M)


def test_det_is_multiplicative(f4, f9):
    rng = random.Random(5)
    for f in (f4, f9):
        for _ in range(20):
            n = rng.randrange(1, 5)
            A = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
            B = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
            AB = f.matmul(np.array(A), np.array(B))
            assert int(f.det(AB)) == int(f.mul(f.det(A), f.det(B)))


def test_matmul_matches_scalar_loops(all_fields):
    rng = random.Random(11)
    for f in all_fields:
        A = [[rng.randrange(f.q) for _ in range(3)] for _ in range(2)]
        B = [[rng.randrange(f.q) for _ in range(4)] for _ in range(3)]
        C = f.matmul(np.array(A), np.array(B))
        for i in range(2):
            for j in range(4):
                s = 0
                for t in range(3):
                    s = f.add(s, f.mul(A[i][t], B[t][j]))
                assert int(C[i, j]) == s


def _exact_product(f, A, B):
    """A B over f from exact Python-int dot products: over F_p one integer
    sum reduced mod p, over an extension field digitwise sums of oracle
    products."""
    A, cols = np.asarray(A).tolist(), np.asarray(B).T.tolist()
    if f.r == 1:
        return [[sum(a * b for a, b in zip(row, col)) % f.p for col in cols] for row in A]

    def add(x, y):
        return sum((x // f.p ** i + y // f.p ** i) % f.p * f.p ** i for i in range(f.r))

    out = []
    for row in A:
        out.append([])
        for col in cols:
            acc = 0
            for a, b in zip(row, col):
                acc = add(acc, oracles.ext_mul(f, a, b))
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("p, exact", [(251, 2 ** 24), (1048573, 2 ** 53)])
def test_matmul_exact_on_each_side_of_a_float_bound(p, exact):
    # float32 holds every integer below 2**24 exactly, float64 below 2**53;
    # 1048573 is the largest prime below 2**20, and its inner dimensions
    # 8192 and 8193 straddle 2**53
    f = field_new(p)
    rng = np.random.default_rng(p)
    low = (exact - 1) // (p - 1) ** 2
    for k in (low, low + 1):
        full = (np.full((2, k), p - 1), np.full((k, 3), p - 1))
        # one odd product makes entry (0, 0) an odd sum: past the bound the
        # narrower float cannot hold it
        odd = tuple(M.copy() for M in full)
        odd[0][0, 0] = odd[1][0, 0] = p - 2
        rand = (rng.integers(0, p, (2, k)), rng.integers(0, p, (k, 3)))
        for A, B in (full, odd, rand):
            assert f.matmul(A, B).tolist() == _exact_product(f, A, B)


def test_matmul_matches_exact_dot_products(f2, f9):
    rng = np.random.default_rng(9)
    for f in (f2, f9):
        for m, k, n in ((0, 4, 3), (3, 0, 2), (1, 1, 1), (20, 30, 25)):
            A, B = rng.integers(0, f.q, (m, k)), rng.integers(0, f.q, (k, n))
            assert f.matmul(A, B).tolist() == _exact_product(f, A, B)
        top = np.full((4, 40), f.q - 1)
        assert f.matmul(top, top.T).tolist() == _exact_product(f, top, top.T)
    # as wide as the stacked complement coordinates of the (192, 31, 4; 96)
    # code; a GF(2) dot product is the parity of an AND of packed bits
    A, B = rng.integers(0, 2, (95, 192)), rng.integers(0, 2, (192, 2976))
    rows = [int("".join(map(str, r)), 2) for r in A.tolist()]
    cols = [int("".join(map(str, c)), 2) for c in B.T.tolist()]
    want = [[(r & c).bit_count() & 1 for c in cols] for r in rows]
    assert f2.matmul(A, B).tolist() == want


def _factor_ranks(factor, rows, widths):
    """(rank of rows, [rank of block i of rows B]) from factor.block_ranks
    where the factor keeps B, and over F_2 from factor.capped, each block
    asked at a cap above its width, so exactly; where both run they agree."""
    got = []
    if factor.field.stacked(factor.inner):
        dims, E = factor.block_ranks([rows])
        got.append((int(dims[0]), E[0].tolist()))
    if factor.field.q == 2:
        [(dim, rank)] = factor.capped([rows])
        got.append((dim, [rank(i, w + 1) for i, w in enumerate(widths)]))
    assert all(g == got[0] for g in got)
    return got[0]


def test_block_ranks_match_oracle(all_fields):
    # with B the identity, the column blocks of rows B are those of the rows
    rng = random.Random(31)
    for f in all_fields:
        for widths in ([], [0], [3], [0, 3, 0], [1, 7, 8, 9, 0, 2], [65, 0, 64]):
            n = sum(widths)
            factor = BlockRankFactor(f, np.eye(n, dtype=np.int64), widths)
            for k in (0, 1, 4, 12):
                M = np.array([[rng.randrange(f.q) for _ in range(n)] for _ in range(k)],
                             dtype=np.int64).reshape(k, n)
                start, want = 0, []
                for w in widths:
                    want.append(oracles.rank(f, M[:, start:start + w].tolist()))
                    start += w
                assert _factor_ranks(factor, M, widths) == (oracles.rank(f, M.tolist()), want)
        with pytest.raises(DimensionMismatch):
            BlockRankFactor(f, np.eye(4, dtype=np.int64), [1, 2])
        with pytest.raises(DimensionMismatch):
            BlockRankFactor(f, np.eye(4, dtype=np.int64), [5, -1])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
def test_stack_ranks_match_oracle(f2, f3, f9, n):
    # excess_rank ranks one stack [U; W] of Subspaces, exactly or capped:
    # over GF(2) it reduces W's packed rows into a copy of U's table, so
    # widths on each side of byte and word boundaries matter
    rng = np.random.default_rng(n)
    for f in (f2, f3, f9):
        tops = [rng.integers(0, f.q, (k, n)) for k in (0, 1, 3, 5)]
        bottoms = [rng.integers(0, f.q, (k, n)) for k in (0, 2, 4)]
        # rows shared with a top, and a bottom of 0 rows, make rank-deficient stacks
        bottoms.append(np.vstack([tops[3][1:3], rng.integers(0, f.q, (1, n))]))
        pairs = [(i, j) for i in range(4) for j in range(4)]
        want = [oracles.rank(f, np.vstack([tops[i], bottoms[j]]).tolist()) for i, j in pairs]
        tops, bottoms = ([Subspace(f, n, A) for A in side] for side in (tops, bottoms))
        tables = ([(rows.copy(), table.copy()) for rows, table in (U.echelon() for U in tops + bottoms)]
                  if f.q == 2 else None)
        for (i, j), rank in zip(pairs, want):
            U, W = tops[i], bottoms[j]
            assert f.excess_rank(U, W) == rank - U.dim
            assert f.excess_rank(W, U) == rank - W.dim
            # caps below, at and above the excess
            for cap in range(rank - U.dim + 2):
                assert f.excess_rank(U, W, cap) == min(rank - U.dim, cap)
                assert f.excess_rank(W, U, cap) == min(rank - W.dim, cap)
        if tables:
            # every rank reduces into a copy: the kept rows and tables are as they were
            assert [U.echelon() for U in tops + bottoms] == tables
        for cap in (None, 1):
            with pytest.raises(DimensionMismatch):
                f.excess_rank(tops[0], Subspace.zero(f, n + 1), cap)
            with pytest.raises(DimensionMismatch):
                f.excess_rank(Subspace.full(f, n + 1), bottoms[0], cap)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130, 192])
def test_gf2_echelon_tables_match_oracle(f2, n):
    # every packed GF(2) kernel reads or writes an echelon table indexed by
    # bit length, so its ranks must be the oracle's either side of byte and
    # word boundaries, and no rank may change a Subspace's kept table
    rng = np.random.default_rng(3100 + n)
    k = min(n, 12)
    mats = [rng.integers(0, 2, (h, n)) for h in (0, 1, 3, k)]
    mats.append(np.vstack([mats[3][:2], mats[2], mats[3][:2]]))     # dependent rows
    mats.append(np.eye(n, dtype=np.int64)[rng.permutation(n)[:k]])
    for M in mats:
        assert f2.rank(M) == oracles.gf2_rank(M.tolist())
        R, piv = f2.rref(M)
        want, wpiv = oracles.rref(f2, M.tolist())
        assert piv == wpiv
        assert R[:len(piv)].tolist() == want[:len(piv)] and not R[len(piv):].any()
    spaces = [Subspace(f2, n, M) for M in mats] + [Subspace.full(f2, n)]
    kept = [(rows.copy(), table.copy()) for rows, table in (U.echelon() for U in spaces)]
    for U in spaces:
        for W in spaces:
            e = oracles.gf2_rank(np.vstack([U.basis, W.basis]).tolist()) - U.dim
            assert f2.excess_rank(U, W) == e
            for cap in range(e + 2):
                assert f2.excess_rank(U, W, cap) == min(e, cap)
    stack = padded_stack(mats)
    caps = [1, 0, 3, 2, n + 1]      # up, down and up again: each scan resumes
    for M, (dim, rank) in zip(mats, f2.capped_stack_ranks(spaces, stack)):
        assert dim == oracles.gf2_rank(M.tolist())
        for i, U in enumerate(spaces):
            e = oracles.gf2_rank(np.vstack([U.basis, M]).tolist()) - U.dim
            assert [rank(i, cap) for cap in caps] == [min(e, cap) for cap in caps]
    widths = [n // 2, n - n // 2, 65]
    B = rng.integers(0, 2, (n, sum(widths)))
    factor = BlockRankFactor(f2, B, widths)
    spans = gf._block_spans(widths, sum(widths))
    for M, (dim, rank) in zip(mats, factor.capped(stack)):
        P = M @ B % 2
        assert dim == oracles.gf2_rank(M.tolist())
        for i, (s, e) in enumerate(spans):
            block = oracles.gf2_rank(P[:, s:e].tolist())
            assert [rank(i, cap) for cap in caps] == [min(block, cap) for cap in caps]
    assert [U.echelon() for U in spaces] == kept


@pytest.mark.parametrize("n", [9, 70])
def test_gf2_capped_ranks_take_a_block_field_then_whole_rows(f2, n):
    # one capped scan over one list of tables: block 0 ranks a bit field of
    # the packed rows into an empty table of its width, block 1 the whole
    # rows into a Subspace's kept table, asked in turn, each resuming its own
    # place, and neither changes the tables it was given
    rng = np.random.default_rng(3300 + n)
    width = 8 * ((n + 7) // 8)
    for shift, w in ((0, 5), (width - n, n // 2), (3, n - 3)):
        U = Subspace(f2, n, rng.integers(0, 2, (4, n)))
        M = rng.integers(0, 2, (7, n))
        M[3] = M[0] ^ M[1]
        tables = [[0] * (w + 1), U.echelon()[1]]
        kept = [t.copy() for t in tables]
        rank = gf._gf2_capped_ranks(tables, gf._gf2_pack(M), [(shift, (1 << w) - 1), (0, -1)])
        padded = np.hstack([M, np.zeros((7, width - n), dtype=np.int64)])
        block = oracles.gf2_rank(padded[:, width - shift - w:width - shift].tolist())
        whole = oracles.gf2_rank(np.vstack([U.basis, M]).tolist()) - U.dim
        for cap in (1, 2, 8):
            assert rank(0, cap) == min(block, cap)
            assert rank(1, cap) == min(whole, cap)
        assert tables == kept


def test_capped_excess_rank_stops_at_the_cap(f3, f9, monkeypatch):
    # off GF(2) a capped pair eliminates its residual only until it has cap
    # pivots: one elimination of at most cap steps, however large the
    # excess, and the capped rank is still the oracle's
    steps = []
    real = GF._eliminate_lone

    def spy(self, A, full, limit=None):
        out = real(self, A, full, limit)
        steps.append(len(out))
        return out

    monkeypatch.setattr(GF, "_eliminate_lone", spy)
    rng = np.random.default_rng(5)
    for f in (f3, f9):
        U = Subspace(f, 12, rng.integers(0, f.q, (3, 12)))
        W = Subspace(f, 12, rng.integers(0, f.q, (6, 12)))
        excess = oracles.rank(f, np.vstack([U.basis, W.basis]).tolist()) - U.dim
        assert excess == 6
        for cap in range(excess + 2):
            steps.clear()
            assert f.excess_rank(U, W, cap) == min(excess, cap)
            assert steps == [min(excess, cap)]


def test_matmul_rejects_encodings_outside_the_field(f2, f3, f9):
    # unchecked, GF(2) reads 3 and -1 as 1 and GF(9) reads 12 as its low
    # two base-3 digits, 3; matmul checks both operands before GF._product
    for f in (f2, f3, f9, field_new(2, 17)):
        ok = np.ones((1, 2), dtype=np.int64)
        for bad in (-1, f.q):
            M = np.array([[1, bad]])
            for A, B in ((M, ok.T), (ok, M.T)):
                with pytest.raises(EncodingOutOfRange):
                    f.matmul(A, B)


def _block_ranks_of_product(f, rows, B, widths, rank):
    """rank() of each column block of rows B, the product from exact
    Python-int dot products."""
    if f.q == 2:
        # a GF(2) dot product is the parity of an AND of packed bits
        packed = [int("".join(map(str, r)) or "0", 2) for r in rows.tolist()]
        cols = [int("".join(map(str, c)) or "0", 2) for c in B.T.tolist()]
        product = [[(r & c).bit_count() & 1 for c in cols] for r in packed]
    else:
        product = _exact_product(f, rows, B)
    out, start = [], 0
    for w in widths:
        out.append(rank([p[start:start + w] for p in product]))
        start += w
    return out


def _nonzero_blocks(f, rows, B, widths):
    """Whether each column block of rows B is nonzero, from f.matmul."""
    P = f.matmul(rows, B)
    ends = np.cumsum([0] + widths).tolist()
    return [bool(P[:, s:e].any()) for s, e in zip(ends, ends[1:])]


@pytest.mark.parametrize("p, r, inner", [(2, 1, 1), (2, 1, 7), (2, 1, 8), (2, 1, 9),
                                         (2, 1, 96), (3, 1, 6), (2, 2, 6), (3, 2, 6)])
def test_nonzero_blocks_match_matmul(p, r, inner):
    # each block of B has at most two nonzero entries, in rows picked at
    # random, so a block of rows B is zero for some rows and nonzero for
    # others, and two entries in one column cancel for some rows; the
    # widths 0 to 13 start and end inside bytes and on byte boundaries of
    # the packed product rows over F_2
    f = field_new(p, r)
    rng = np.random.default_rng([p, r, inner])
    widths = [0, 1, 3, 4, 8, 0, 5, 13, 8, 2, 0]
    ends = np.cumsum([0] + widths).tolist()
    seen = set()
    for _ in range(4):
        B = np.zeros((inner, sum(widths)), dtype=np.int64)
        for s, e in zip(ends, ends[1:]):
            if e > s:
                col = s + int(rng.integers(e - s))
                B[rng.integers(inner, size=int(rng.integers(3))), col] = rng.integers(1, f.q)
        factor = BlockRankFactor(f, B, widths)
        for k in (0, 1, 3, inner + 2):
            rows = rng.integers(0, f.q, (k, inner)) * (rng.random((k, inner)) < 0.3)
            got = factor.nonzero_blocks(rows)
            want = _nonzero_blocks(f, rows, B, widths)
            assert got.dtype == bool and got.tolist() == want
            seen.update(want)
        assert factor.nonzero_blocks(np.ones((2, inner), dtype=np.int64)).tolist() == \
            _nonzero_blocks(f, np.ones((2, inner), dtype=np.int64), B, widths)
    assert seen == {False, True}
    # no blocks at all
    assert BlockRankFactor(f, np.zeros((inner, 0), dtype=np.int64), []).nonzero_blocks(
        np.ones((2, inner), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("inner", [1, 7, 8, 9, 191])
def test_block_rank_factor_matches_dot_products(f2, inner):
    # blocks of 63 to 130 columns start and end on both sides of 64-bit
    # boundaries, and inner dimensions other than multiples of 8 leave the
    # last table part-filled
    widths = [0, 1, 63, 64, 0, 65, 96, 130]
    rng = np.random.default_rng(inner)
    B = rng.integers(0, 2, (inner, sum(widths)))
    factor = BlockRankFactor(f2, B, widths)
    some = rng.integers(0, 2, (12, inner))
    cases = [np.zeros((0, inner), dtype=np.int64), np.zeros((3, inner), dtype=np.int64),
             some[:1], some, np.vstack([some[:5], some[:5]]), np.ones((2, inner), dtype=np.int64)]
    if inner == 191:
        # 97 rows of rank 96, the last the sum of the first two
        full = rng.integers(0, 2, (96, inner))
        cases.append(np.vstack([full, full[0] ^ full[1]]))
    for rows in cases:
        want = _block_ranks_of_product(f2, rows, B, widths, oracles.gf2_rank)
        got = _factor_ranks(factor, rows, widths)
        assert got == (oracles.gf2_rank(rows.tolist()), want)
        if inner <= 9 and len(rows) <= 12:
            # the xor-basis oracle agrees with the generic one
            assert want == _block_ranks_of_product(
                f2, rows, B, widths, lambda M: oracles.rank(f2, M))
            assert got[0] == oracles.rank(f2, rows.tolist())
        # the same tables tell which blocks of rows B are nonzero
        assert factor.nonzero_blocks(rows).tolist() == _nonzero_blocks(f2, rows, B, widths)
    if inner == 191:
        assert got[0] == 96     # the last case, the 97 rows


def test_capped_ranks_are_min_of_exact_rank_and_cap(f2, f3, f4, f9):
    # over GF(2) each block's scan is resumed, never restarted, so any
    # sequence of caps, rising or falling, must give min(exact rank, cap)
    # every time; the exact forms, on every field, give the exact ranks
    for f in (f2, f3, f4, f9):
        _check_stacked_ranks(f)


def _check_stacked_ranks(f):
    q = f.q
    n = 70 if q == 2 else 12    # elimination off GF(2) is slower
    rank_of = oracles.gf2_rank if q == 2 else lambda M: oracles.rank(f, M)
    rng = np.random.default_rng(17)
    widths = [0, 3, 9, 64, 65, 20] if q == 2 else [0, 3, 1, 5, 0, 4]
    B = rng.integers(0, q, (n, sum(widths)))
    factor = BlockRankFactor(f, B, widths)
    tops = [rng.integers(0, q, (int(rng.integers(0, n // 2)), n)) for _ in range(4)]
    tops.append(np.vstack([tops[0], tops[0][:3]]))      # dependent rows
    spaces = [Subspace(f, n, T) for T in tops]
    rows = [np.zeros((0, n), dtype=np.int64), rng.integers(0, q, (5, n)),
            rng.integers(0, q, (n // 2, n)), np.eye(n, dtype=np.int64)]
    rows.append(np.vstack([rows[2], rows[2][:4]]))
    stack = padded_stack(rows)
    dims = [rank_of(A.tolist()) for A in rows]
    blocks = [_block_ranks_of_product(f, A, B, widths, rank_of) for A in rows]
    joints = [[rank_of(np.vstack([T, A]).tolist()) - rank_of(T.tolist()) for T in tops]
              for A in rows]
    got, E = f.excess_ranks(spaces, stack)
    assert (got.tolist(), E.tolist()) == (dims, joints)
    # no tops: only rank B
    got, E = f.excess_ranks([], stack)
    assert (got.tolist(), E.shape) == (dims, (len(rows), 0))
    if q != 2:
        got, E = factor.block_ranks(stack)
        assert (got.tolist(), E.tolist()) == (dims, blocks)
    else:
        capped = factor.capped(stack)
        stacked = f.capped_stack_ranks(spaces, stack)
        for want, block, joint, (dim, rank), (dim2, rank2) in zip(
                dims, blocks, joints, capped, stacked):
            assert dim == dim2 == want
            for cap in [1, 2, 1, 4, 3, 8, 16, 0, 32, 64, 70, 5]:
                assert [rank(i, cap) for i in range(len(widths))] == [min(e, cap) for e in block]
                assert [rank2(i, cap) for i in range(len(tops))] == [min(e, cap) for e in joint]
        assert [dim for dim, _ in f.capped_stack_ranks([], stack)] == dims
        assert f.capped_stack_ranks(spaces, np.zeros((0, 0, n), dtype=np.int64)) == []
    # a stack of no words, of words of the wrong width, and not a stack
    assert [a.shape for a in f.excess_ranks(spaces, np.zeros((0, 3, n), dtype=np.int64))] == \
        [(0,), (0, len(spaces))]
    forms = [lambda S: f.excess_ranks(spaces, S)]
    forms += [factor.capped, lambda S: f.capped_stack_ranks(spaces, S)] if q == 2 else \
        [factor.block_ranks]
    for form in forms:
        for bad in (np.zeros((1, 2, n - 1), dtype=np.int64), np.zeros((2, n), dtype=np.int64)):
            with pytest.raises(DimensionMismatch):
                form(bad)


def test_capped_forms_are_taken_over_gf2_only(f2, f3, f4, f9):
    # the decoders rank every block off GF(2) exactly, so there is no capped
    # form there; GF(2) takes it at any width, the stacked one included
    for f in (f2, f3, f4, f9):
        n = 4
        spaces = [Subspace(f, n, [[1, 0, 0, 0]]), Subspace(f, n, [[1, 1, 1, 1]])]
        factor = BlockRankFactor(f, np.eye(n, dtype=np.int64), [2, 2])
        stack = np.array([[[1, 1, 0, 0], [0, 0, 1, 1]]])
        forms = (factor.capped, lambda S: f.capped_stack_ranks(spaces, S))
        if f.q == 2:
            (dim, rank), = factor.capped(stack)
            assert (dim, rank(0, 3), rank(1, 3)) == (2, 1, 1)
            (dim, rank), = f.capped_stack_ranks(spaces, stack)
            assert (dim, rank(0, 3), rank(1, 3)) == (2, 2, 1)
            continue
        for form in forms:
            with pytest.raises(FieldMismatch):
                form(stack)
        # the exact forms give the ranks the capped ones would have capped
        dims, E = factor.block_ranks(stack)
        assert (dims.tolist(), E.tolist()) == ([2], [[1, 1]])
        dims, E = f.excess_ranks(spaces, stack)
        assert (dims.tolist(), E.tolist()) == ([2], [[2, 1]])


def test_block_rank_factor_on_other_fields(f3, f4, f9):
    rng = np.random.default_rng(5)
    widths = [0, 2, 5, 0, 3]
    for f in (f3, f4, f9):
        B = rng.integers(0, f.q, (6, sum(widths)))
        factor = BlockRankFactor(f, B, widths)
        for k in (0, 1, 4, 8):
            rows = rng.integers(0, f.q, (k, 6))
            rows = np.vstack([rows, rows[:2]])
            want = _block_ranks_of_product(f, rows, B, widths,
                                           lambda M: oracles.rank(f, M))
            assert _factor_ranks(factor, rows, widths) == (oracles.rank(f, rows.tolist()), want)


def test_block_rank_factor_validation(all_fields):
    for f in all_fields:
        B = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(DimensionMismatch):
            BlockRankFactor(f, B, [1, 2])
        with pytest.raises(EncodingOutOfRange):
            BlockRankFactor(f, B - 1, [4])
        # a stack of row sets of 4 columns, against a factor of 3 rows
        with pytest.raises(DimensionMismatch):
            BlockRankFactor(f, B, [4]).block_ranks(np.zeros((1, 2, 4), dtype=np.int64))
        # a matrix of 4 columns, and entries outside [0, q), on every field
        with pytest.raises(DimensionMismatch):
            BlockRankFactor(f, B, [4]).nonzero_blocks(np.zeros((2, 4), dtype=np.int64))
        for bad in (-1, f.q):
            with pytest.raises(EncodingOutOfRange):
                BlockRankFactor(f, B, [4]).nonzero_blocks(np.full((2, 3), bad))
        if f.q == 2:
            with pytest.raises(DimensionMismatch):
                BlockRankFactor(f, B, [4]).capped(np.zeros((1, 2, 4), dtype=np.int64))


def test_inverse_matrix(f3, f9):
    for f in (f3, f9):
        I = np.eye(3, dtype=np.int64)
        M = [[1, 1, 0], [0, 1, 0], [2 % f.q, 0, 1]]
        Minv = f.inv_matrix(M)
        assert f.matmul(np.array(M), Minv).tolist() == I.tolist()


def test_singular_inverse_raises(f3):
    with pytest.raises(LcdError):
        f3.inv_matrix([[1, 2], [2, 1]])


def test_matrix_validation(f3):
    with pytest.raises(DimensionMismatch):
        f3.matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        f3.det([[1, 2, 0], [0, 1, 1]])
    with pytest.raises(LcdError):
        f3.asmatrix([[5]])
