import random
from itertools import product

import numpy as np
import pytest

import oracles
from lcdsubspace import constructions
from lcdsubspace.codes import is_lcd_subspace_code, params
from lcdsubspace.constructions import (
    ALGEBRA_DIM_CAP,
    PIPELINES,
    AlgebraBasis,
    _check_product_identity,
    algebra_closure,
    build_block,
    bush_schemes,
    lcd_code_thm42,
    murh_scheme,
    subspace_code_from_algebra,
    theorem_pipeline,
)
from lcdsubspace.errors import (
    DimensionBlowup,
    DivisibilityFails,
    HypothesisFailed,
    IdentityFails,
    IndexOutOfRange,
    InvalidSpec,
    NotAnInteger,
    NotBushType,
    UnequalCells,
    VerificationFailed,
    ZeroAlpha,
)
from lcdsubspace.gf import GF, field_new
from lcdsubspace.hadamard import (
    HadamardMatrix,
    UnbiasedSet,
    gramian_B,
    search_unbiased_extension,
    sylvester,
)
from lcdsubspace.schemes import EquitablePartition, scheme_from_matrices


def swap_matrix():
    return np.array([[0, 1], [1, 0]], dtype=np.int64)


# --- algebra closure ---


def test_closure_dims(f2, f3):
    assert algebra_closure(f2, [np.eye(2, dtype=np.int64)]).dim == 1
    basis = algebra_closure(f2, [swap_matrix()])
    assert basis.dim == 2  # the swap matrix and its square span dimension 2
    assert basis.field is f2 and basis.t == 2


def test_closure_is_product_closed(f3, f4):
    rng = np.random.default_rng(3)
    for f in (f3, f4):
        gens = [rng.integers(0, f.q, size=(3, 3)) for _ in range(2)]
        basis = algebra_closure(f, gens, cap=64)
        flat = [b.reshape(-1).tolist() for b in basis.basis]
        r0 = oracles.rank(f, flat)
        assert r0 == basis.dim
        for a in basis.basis:
            for b in basis.basis:
                prod = f.matmul(a, b).reshape(-1).tolist()
                assert oracles.rank(f, flat + [prod]) == r0


def test_closure_rejections(f2):
    with pytest.raises(InvalidSpec):
        algebra_closure(f2, [np.zeros((2, 2), dtype=np.int64)])
    with pytest.raises(DimensionBlowup):
        algebra_closure(f2, [swap_matrix()], cap=1)


def _oracle_closure(f, gens, cap):
    """The closure's worklist, with span membership by oracles.rank: returns
    the basis and None, or the basis so far and the generator or product
    past the cap."""
    basis, flat, queue = [], [], []

    def extends(M):
        row = M.reshape(-1).tolist()
        # rows as many as columns span everything, with no rank to take
        if len(flat) == len(row) or oracles.rank(f, flat + [row]) == len(flat):
            return False
        flat.append(row)
        return True

    for G in gens:
        if G.any() and extends(G):
            if len(basis) >= cap:
                return basis, G
            basis.append(G)
            queue.append(G)
    while queue:
        new = queue.pop(0)
        for other in list(basis):
            for prod in (f.matmul(new, other), f.matmul(other, new)):
                if extends(prod):
                    if len(basis) >= cap:
                        return basis, prod
                    basis.append(prod)
                    queue.append(prod)
    return basis, None


def _closure_generators(f, seed):
    """One to three seeded t x t generators, t = 2 or 3, some sparse (so
    some algebras are small) and some zero."""
    rng = np.random.default_rng((seed, f.q))
    t = 2 + seed % 2
    gens = []
    for _ in range(1 + seed % 3):
        G = rng.integers(0, f.q, size=(t, t))
        gens.append(G * (rng.random((t, t)) < (0.2, 0.35, 1.0)[seed % 3]))
    return gens


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_closure_matches_oracle_in_order(p, r):
    # a fresh field, whose matmul records every product of two t x t
    # matrices: the closure must take the oracle's products in its order,
    # and stop at the same one when it passes the cap
    f = GF(p, r)
    products = []
    matmul = f.matmul

    def recording(A, B):
        C = matmul(A, B)
        if A.shape == B.shape == (len(A), len(A)):
            products.append(C.tolist())
        return C

    def taken(closure, *args):
        products.clear()
        out = closure(f, *args)
        return out, list(products)

    f.matmul = recording
    capped = 0
    for seed in range(8):
        gens = _closure_generators(f, seed)
        if not any(G.any() for G in gens):
            continue
        (want, _), want_products = taken(_oracle_closure, gens, ALGEBRA_DIM_CAP)
        got, got_products = taken(algebra_closure, gens)
        assert [B.tolist() for B in got.basis] == [B.tolist() for B in want]
        assert got_products == want_products
        for cap in range(1, len(want)):
            (_, past), want_products = taken(_oracle_closure, gens, cap)
            # one of the last two products, or a generator before any product
            assert past.tolist() in (want_products[-2:] or [G.tolist() for G in gens])
            with pytest.raises(DimensionBlowup):
                taken(algebra_closure, gens, cap)
            assert products == want_products
            capped += 1
    assert capped > 0


# --- block builder ---


def test_build_block_pinned(f2):
    N = build_block(f2, np.zeros((2, 2), dtype=np.int64), 1)
    assert N.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]
    N = build_block(f2, np.eye(2, dtype=np.int64), 1)
    assert N.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    with pytest.raises(ZeroAlpha):
        build_block(f2, np.eye(2, dtype=np.int64), 0)


# --- classical construction from one scheme class ---


def test_thm42_one_cell(k44_scheme):
    part = EquitablePartition([tuple(range(8))], 8)
    rep = lcd_code_thm42(k44_scheme, part, 1, 2)
    assert rep.kind == "thm42" and rep.t == 1 and rep.lcd_verified
    assert rep.generator.tolist() == [[0, 1]]
    assert rep.length == 2
    assert all(ok for _, ok in rep.hypotheses)


def test_thm42_singletons_and_halves(k44_scheme):
    rep = lcd_code_thm42(k44_scheme, EquitablePartition.singletons(8), 1, 2)
    assert rep.t == 8 and rep.lcd_verified
    part = EquitablePartition([tuple(range(4)), tuple(range(4, 8))], 8)
    rep = lcd_code_thm42(k44_scheme, part, 1, 2)
    assert rep.t == 2 and rep.lcd_verified
    assert rep.generator.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_thm42_divisibility_gate():
    I2 = np.eye(2, dtype=np.int64)
    J2 = np.ones((2, 2), dtype=np.int64)
    k2 = scheme_from_matrices([I2, J2 - I2])
    # p_{11}^0 = 1 here, so no prime passes the divisibility hypothesis
    for p in (2, 3):
        with pytest.raises(DivisibilityFails):
            lcd_code_thm42(k2, EquitablePartition([(0, 1)], 2), 1, p)
    # the target object still exists: [1 | alpha] is classically LCD over F_3
    from lcdsubspace.codes import classical_lcd_check

    assert classical_lcd_check(field_new(3), [[1, 1]])


def test_thm42_rejections(k44_scheme):
    with pytest.raises(IndexOutOfRange):
        lcd_code_thm42(k44_scheme, EquitablePartition.singletons(8), 3, 2)
    ragged = EquitablePartition([(0,), tuple(range(1, 8))], 8)
    with pytest.raises(UnequalCells):
        lcd_code_thm42(k44_scheme, ragged, 1, 2)


# --- code from a matrix algebra ---


def test_algebra_code_pinned(f3):
    J = np.ones((3, 3), dtype=np.int64)
    basis = algebra_closure(f3, [J])
    assert basis.dim == 1
    rep = subspace_code_from_algebra(basis, alphas=(1, 2))
    p = rep.params
    assert (p.n, p.size, p.d, p.dims, p.q) == (6, 2, 2, (3,), 3)
    assert rep.lcd_verified and rep.enumeration_complete and rep.distance_exhaustive
    assert rep.tallies == {"x_alpha_pairs": 4, "row_spaces": 2}
    assert rep.alphas == (1, 2)
    assert rep.identity_all_pairs
    assert bool(is_lcd_subspace_code(rep.code))


def test_algebra_code_zero_x_variant(f3):
    J = np.ones((3, 3), dtype=np.int64)
    basis = algebra_closure(f3, [J])
    rep = subspace_code_from_algebra(basis, alphas=(1, 2), include_zero_x=True)
    assert rep.include_zero_x
    assert rep.params.size == 3  # the [0 | alpha I] row space joins the code
    assert rep.tallies["x_alpha_pairs_with_zero"] == 6
    assert rep.tallies["row_spaces_with_zero"] == 3
    assert rep.lcd_verified


def test_algebra_code_identity_recomputed(f3):
    # N_x N_y^T = alpha_x alpha_y I, re-derived here from scratch
    J = np.ones((3, 3), dtype=np.int64)
    basis = algebra_closure(f3, [J])
    blocks = []
    for c in range(1, 3):
        X = f3.mul(c, J)
        for alpha in (1, 2):
            blocks.append((build_block(f3, X, alpha), alpha))
    for N, a in blocks:
        for M, b in blocks:
            prod = f3.matmul(N, M.T)
            expect = f3.mul(f3.mul(a, b), np.eye(3, dtype=np.int64))
            assert prod.tolist() == expect.tolist()


def _identity_failures(f, t, ordered, pair_list):
    """The pairs of pair_list, each once and in order, whose N_i N_j^T is not
    a_i a_j I, from f.matmul of the blocks."""
    out = []
    for i, j in pair_list:
        (N, a), (M, b) = ((build_block(f, *ordered[k]), ordered[k][1]) for k in (i, j))
        want = f.mul(f.mul(a, b), np.eye(t, dtype=np.int64))
        if (f.matmul(N, M.T) != want).any() and (i, j) not in out:
            out.append((i, j))
    return out


def _reported_failures(f, t, ordered, pair_list):
    """The failing pairs as the check reports them: its witness, then the
    witness of the pair list without it, and so on until it passes."""
    out = []
    while True:
        try:
            _check_product_identity(f, t, ordered, pair_list)
        except VerificationFailed as e:
            out.append(e.witness)
            pair_list = [pair for pair in pair_list if pair != e.witness]
        else:
            return out


def _pair_lists(size, seed):
    pairs = [(i, j) for i in range(size) for j in range(size)]
    rnd = random.Random(seed)
    sampled = [(rnd.randrange(size), rnd.randrange(size)) for _ in range(3 * size)]
    return [pairs, pairs[::-1], sampled, sampled[::-1], [(2, 0), (2, 1), (1, 1), (2, 1)]]


def _self_orthogonal(f, t):
    """X with X X^T = 0: one row, the first nonzero v with v . v = 0 on the
    last min(t, 3) coordinates (zero when there is none, as for t = 1)."""
    X = np.zeros((t, t), dtype=np.int64)
    m = min(t, 3)
    for v in product(range(f.q), repeat=m):
        v = np.array(v, dtype=np.int64)
        if v.any() and not f.matmul(v[None], v[:, None]).any():
            X[0, t - m:] = v
            break
    return X


IDENTITY_FIELDS = [(2, 1), (2, 2), (3, 1)]
IDENTITY_TS = [1, 5, 8, 9, 13]


def test_product_identity_witness_is_the_first_failing_pair():
    # N_i N_j^T = X_i X_j^T + a_i a_j I.  X_1 = E_{t-1,t-1} fails with itself
    # at entry (t - 1, t - 1) only, the top bit of a block; X_2 X_2^T = 0,
    # but X_2 and X_1 fail together when t > 1.  Over F_2 the 2t columns of
    # N_i fill whole and partial bytes of its packed rows, and blocks of 1
    # to 13 bits start and end inside bytes and on byte boundaries of the
    # packed product rows.
    for (p, r), t in product(IDENTITY_FIELDS, IDENTITY_TS):
        f = field_new(p, r)
        rng = np.random.default_rng([p, r, t])
        alpha = lambda: int(rng.integers(1, f.q))
        X1 = np.zeros((t, t), dtype=np.int64)
        X1[t - 1, t - 1] = 1
        X3 = rng.integers(0, f.q, (t, t)) * (rng.random((t, t)) < 0.2)
        ordered = [(np.zeros((t, t), dtype=np.int64), alpha()), (X1, alpha()),
                   (_self_orthogonal(f, t), alpha()), (X3, alpha())]
        for pair_list in _pair_lists(len(ordered), t):
            failing = _identity_failures(f, t, ordered, pair_list)
            assert ((1, 1) in failing) == ((1, 1) in pair_list)
            # the first witness is failing[0], and so on down the list
            assert _reported_failures(f, t, ordered, pair_list) == failing
        _check_product_identity(f, t, ordered, [(0, 1), (2, 0), (0, 2), (2, 2), (0, 1)])


@pytest.mark.parametrize("t", IDENTITY_TS)
@pytest.mark.parametrize("p, r", IDENTITY_FIELDS)
def test_product_identity_holds_on_orthogonal_blocks(p, r, t):
    # X_i = c_i v^T with v . v = 0 gives X_i X_j^T = 0 for every pair, so
    # every product row must be exactly the diagonal of a_i a_j
    f = field_new(p, r)
    rng = np.random.default_rng([t, p, r])
    v = _self_orthogonal(f, t)[0]
    ordered = [(f.mul(rng.integers(0, f.q, (t, 1)), v[None]), int(rng.integers(1, f.q)))
               for _ in range(6)]
    for pair_list in _pair_lists(len(ordered), t):
        assert _identity_failures(f, t, ordered, pair_list) == []
        _check_product_identity(f, t, ordered, pair_list)


@pytest.mark.parametrize("t", IDENTITY_TS)
@pytest.mark.parametrize("p, r", [(2, 1), (2, 2)])
def test_product_identity_agrees_with_matmul_on_random_codes(p, r, t):
    # sparse X: E_{a,b} E_{c,d}^T is nonzero only when b = d, so some pairs
    # pass and others fail, at entries all over the blocks
    f = field_new(p, r)
    rng = np.random.default_rng([r, t, p])
    for _ in range(3):
        ordered = []
        for _ in range(7):
            X = np.zeros((t, t), dtype=np.int64)
            for _ in range(int(rng.integers(0, 3))):
                X[rng.integers(t), rng.integers(t)] = rng.integers(1, f.q)
            ordered.append((X, int(rng.integers(1, f.q))))
        for pair_list in _pair_lists(len(ordered), t)[:3]:
            want = _identity_failures(f, t, ordered, pair_list)
            assert _reported_failures(f, t, ordered, pair_list) == want


def test_product_identity_builds_no_block_and_one_factor(f2, f3, monkeypatch):
    # the check multiplies the X blocks alone, never [X | aI]; one factor
    # holds every distinct partner, in first-seen order, and each distinct
    # codeword takes one product with it
    built, factors, products = [], [], []

    def forbidden(field, X, alpha):
        built.append(1)
        return build_block(field, X, alpha)

    class Counting(constructions.BlockRankFactor):
        def __init__(self, field, B, widths):
            factors.append(B.shape)
            super().__init__(field, B, widths)

        def nonzero_blocks(self, M):
            products.append(M.shape)
            return super().nonzero_blocks(M)

    monkeypatch.setattr(constructions, "build_block", forbidden)
    monkeypatch.setattr(constructions, "BlockRankFactor", Counting)
    t = 4
    for f in (f2, f3):
        ordered = [(np.zeros((t, t), dtype=np.int64), 1)] * 5
        for pair_list in ([(0, 1), (1, 0), (1, 1), (0, 1), (3, 0), (2, 0), (2, 1)],
                          _pair_lists(5, 0)[0], _pair_lists(5, 0)[2]):
            factors.clear()
            products.clear()
            _check_product_identity(f, t, ordered, pair_list)
            partners = {j for _, j in pair_list}
            assert factors == [(t, t * len(partners))]
            assert products == [(t, t)] * len({i for i, _ in pair_list})
    assert built == []


def test_product_identity_on_sampled_pairs_names_the_first_failing_pair():
    # past 100 codewords the construction checks 100 seeded random pairs, as
    # here.  X_k = c_k v^T with v . v = 0 passes with every X; X_a = e_0 u^T
    # and X_b = e_0 w^T with u, w orthogonal to v and to themselves but
    # u . w = 1 fail together, (a, b) and (b, a) alone, and the witness is
    # whichever comes first in the pair list
    f, t, size = field_new(2), 5, 120
    rng = np.random.default_rng(59)
    v = _self_orthogonal(f, t)[0]
    assert v.tolist() == [0, 0, 0, 1, 1]
    ordered = [(np.outer(rng.integers(0, 2, t), v), 1) for _ in range(size)]
    rnd = random.Random(59)
    pair_list = [(rnd.randrange(size), rnd.randrange(size)) for _ in range(100)]
    _check_product_identity(f, t, ordered, pair_list)
    a, b = next(pair for pair in pair_list[50:] if pair[0] != pair[1])
    e0 = np.eye(t, dtype=np.int64)[0]
    planted = list(ordered)
    planted[a] = (np.outer(e0, [1, 1, 0, 0, 0]), 1)
    planted[b] = (np.outer(e0, [1, 0, 1, 0, 0]), 1)
    failing = _identity_failures(f, t, planted, pair_list)
    assert failing and set(failing) <= {(a, b), (b, a)}
    with pytest.raises(VerificationFailed) as exc:
        _check_product_identity(f, t, planted, pair_list)
    assert exc.value.witness == failing[0]


def test_algebra_code_rejects_non_lcd(f2):
    basis = algebra_closure(f2, [np.eye(1, dtype=np.int64)])
    with pytest.raises(VerificationFailed):
        subspace_code_from_algebra(basis)


def test_algebra_code_truncated_enumeration(f3):
    J = np.ones((3, 3), dtype=np.int64)
    basis = algebra_closure(f3, [J])
    rep = subspace_code_from_algebra(basis, alphas=(1,), cap=2, sample=50, seed=1)
    assert not rep.enumeration_complete
    assert rep.params.size >= 1 and rep.lcd_verified


def test_algebra_code_distance_fallback(f3):
    J = np.ones((3, 3), dtype=np.int64)
    basis = algebra_closure(f3, [J])
    rep = subspace_code_from_algebra(basis, alphas=(1, 2), pair_budget=0)
    assert not rep.distance_exhaustive
    assert rep.params.d is not None  # sampled upper bound still reported


# --- three-class symmetric quotient structure ---


def murh_expected_tables(n, m):
    half = n // 2
    return {
        ("B1", "B1"): ((2 * n * n + n) * m, (n * n + 3 * half) * (m - 1),
                       (n * n + half) * (m - 1), (n * n + n) * m),
        ("B2", "B2"): ((2 * n * n - n) * m, (n * n - half) * (m - 1),
                       (n * n - 3 * half) * (m - 1), (n * n - n) * m),
        ("B1", "B2"): (0, (n * n - half) * (m - 1), (n * n + half) * (m - 1),
                       n * n * m),
        ("B1", "B3"): (0, 2 * n * n + n - 1, 2 * n * n + n, 0),
        ("B2", "B3"): (0, 2 * n * n - n, 2 * n * n - n - 1, 0),
    }


def test_murh_identities_exact(bush_uset):
    B1, B2, B3 = gramian_B(bush_uset)
    I = np.eye(48, dtype=np.int64)
    by_name = {"B1": B1, "B2": B2, "B3": B3}
    n, m = 2, 2
    tables = murh_expected_tables(n, m)
    # pinned spot values for n = 2, m = 2
    assert tables[("B1", "B1")][0] == (2 * n * n + n) * m == 20
    assert tables[("B1", "B3")][1] == 2 * n * n + n - 1 == 9
    for (na, nb), (c0, c1, c2, c3) in tables.items():
        lhs = by_name[na] @ by_name[nb]
        rhs = c0 * I + c1 * B1 + c2 * B2 + c3 * B3
        assert (lhs == rhs).all(), (na, nb)


def test_murh_scheme_built(bush_uset):
    B1, B2, B3 = gramian_B(bush_uset)
    sch = murh_scheme(B1, B2, B3, 2, 2)
    assert sch.size == 48 and sch.classes == 3
    mats = [np.asarray(M).tolist() for M in sch.mats]
    expect = oracles.intersection_tensor(mats)
    assert expect is not None
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert int(sch.tensor[i, j, k]) == expect[i][j][k]


def test_murh_scheme_rejects_tampering(bush_uset):
    B1, B2, B3 = gramian_B(bush_uset)
    bad = B1.copy()
    bad[0, 1] ^= 1
    bad[1, 0] ^= 1
    with pytest.raises(IdentityFails):
        murh_scheme(bad, B2, B3, 2, 2)


# --- bush-type refinements ---


def test_bush_schemes_shapes(bush_pair_schemes):
    five = bush_pair_schemes.five_class
    eight = bush_pair_schemes.eight_class
    assert five.size == 48 and five.classes == 5
    assert eight.size == 96 and eight.classes == 8
    assert bush_pair_schemes.n == 2 and bush_pair_schemes.m == 2


def test_bush_five_class_pinned_identity(bush_pair_schemes):
    n = 2
    A = [np.asarray(M) for M in bush_pair_schemes.five_class.mats]
    lhs = A[1] @ A[1]
    rhs = (2 * n - 1) * A[0] + (2 * n - 2) * A[1]
    assert (lhs == rhs).all()


def test_bush_eight_class_pinned_identity(bush_pair_schemes):
    n, m = 2, 2
    T = [np.asarray(M) for M in bush_pair_schemes.eight_class.mats]
    lhs = T[4] @ T[5]
    rhs = 2 * m * n * (T[2] + T[8]) + 2 * n * (m - 1) * T[5]
    assert (lhs == rhs).all()


def test_bush_schemes_reject_non_bush(bush_pair):
    A, B = bush_pair
    flipped = A.entries.copy()
    flipped[0] *= -1
    us = UnbiasedSet([HadamardMatrix(flipped), B])
    with pytest.raises(NotBushType):
        bush_schemes(us)


# --- the one-call pipelines ---


def test_pipeline_thm51(order4_pair):
    rep = theorem_pipeline("thm51", p=2, matrices=list(order4_pair.matrices))
    p = rep.params
    assert (p.n, p.size, p.d, p.dims, p.q) == (8, 1, None, (4,), 2)
    assert rep.lcd_verified and rep.kind == "thm51"


def test_pipeline_thm51_wrong_prime(order4_pair):
    with pytest.raises(HypothesisFailed, match="sqrt"):
        theorem_pipeline("thm51", p=3, matrices=list(order4_pair.matrices))


def test_pipeline_thm52_weighing(order4_pair):
    mats = [m.entries for m in order4_pair.matrices]
    rep = theorem_pipeline("thm52", p=2, matrices=mats, weight=4)
    assert rep.params.n == 8 and rep.params.size == 1
    assert rep.lcd_verified


def test_pipeline_thm55_records_the_weight(order4_pair):
    mats = [m.entries for m in order4_pair.matrices]
    rep = theorem_pipeline("thm55", p=2, matrices=mats, weight=4,
                           partition=EquitablePartition.singletons(4))
    assert rep.lcd_verified and rep.params.n == 8
    assert rep.source["weight"] == 4


def test_pipeline_thm54_partitions(order4_pair):
    mats = list(order4_pair.matrices)
    rep = theorem_pipeline("thm54", p=2, matrices=mats,
                           partition=EquitablePartition.singletons(4))
    assert rep.params.n == 8 and rep.lcd_verified
    with pytest.raises(HypothesisFailed, match="equitable"):
        theorem_pipeline("thm54", p=2, matrices=mats,
                         partition=EquitablePartition([(0, 1), (2, 3)], 4))


def test_pipeline_cor45(c4):
    from lcdsubspace.drg import PermutationGroup

    ident = PermutationGroup(4, [(0, 1, 2, 3)])
    rep = theorem_pipeline("cor45", p=2, graph=c4, group=ident, indices=(1,))
    assert rep.params.n == 8 and rep.params.dims == (4,) and rep.lcd_verified
    refl = PermutationGroup(4, [(0, 3, 2, 1)])
    with pytest.raises(HypothesisFailed, match="equal length"):
        theorem_pipeline("cor45", p=2, graph=c4, group=refl, indices=(1,))
    rot = PermutationGroup(4, [(1, 2, 3, 0)])
    with pytest.raises(HypothesisFailed, match="nonzero mod p"):
        theorem_pipeline("cor45", p=2, graph=c4, group=rot, indices=(1,))


def test_pipeline_cor45_checks_distance_regularity_once(c4, monkeypatch):
    # scheme_from_drg checks the graph, and cor45 takes the hypothesis from
    # that one check: one per construction, and its witness on a failure
    from lcdsubspace import drg
    from lcdsubspace.drg import Graph, PermutationGroup

    checks = []
    real = drg.check_distance_regular
    monkeypatch.setattr(drg, "check_distance_regular", lambda g: checks.append(g) or real(g))
    theorem_pipeline("cor45", p=2, graph=c4, group=PermutationGroup(4, [(0, 1, 2, 3)]),
                     indices=(1,))
    assert checks == [c4]
    star = Graph(np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]))
    checks.clear()
    with pytest.raises(HypothesisFailed) as exc:
        theorem_pipeline("cor45", p=2, graph=star, group=PermutationGroup(4, [(0, 1, 2, 3)]),
                         indices=(1,))
    assert exc.value.name == "graph is distance-regular"
    assert exc.value.witness == real(star).witness and checks == [star]


def test_pipeline_class_indices_are_integers(k44_scheme):
    # a cast once read 1.7, True and "1" as class 1
    for bad in (1.7, True, "1"):
        with pytest.raises(NotAnInteger):
            theorem_pipeline("thm43", p=2, scheme=k44_scheme,
                             partition=EquitablePartition.singletons(8), indices=[bad])
        with pytest.raises(NotAnInteger):
            lcd_code_thm42(k44_scheme, EquitablePartition.singletons(8), bad, 2)


def test_pipeline_thm43(k44_scheme):
    rep = theorem_pipeline("thm43", p=2, r=2, scheme=k44_scheme,
                           partition=EquitablePartition.singletons(8),
                           indices=(1,))
    p = rep.params
    assert (p.n, p.size, p.d, p.dims, p.q) == (16, 3, 4, (8,), 4)
    assert rep.lcd_verified and rep.enumeration_complete
    assert rep.tallies == {"x_alpha_pairs": 3, "row_spaces": 3}


def test_pipeline_bush_gates(bush_pair):
    for kind in ("thm56", "thm58"):
        with pytest.raises(HypothesisFailed, match="n/2"):
            theorem_pipeline(kind, p=2, matrices=list(bush_pair),
                             partition=None)


def test_pipeline_thm59(thm59_report):
    rep = thm59_report
    p = rep.params
    assert (p.n, p.size, p.d, p.dims, p.q) == (192, 31, 4, (96,), 2)
    assert rep.lcd_verified and rep.enumeration_complete
    assert rep.algebra_dim == 5
    assert rep.identity_all_pairs and rep.identity_pairs_checked == 31 * 31
    assert rep.tallies == {"x_alpha_pairs": 31, "row_spaces": 31}
    assert rep.source["generator_classes"] == [3, 4, 5, 6, 7]
    assert all(ok for _, ok in rep.hypotheses)
    assert bool(is_lcd_subspace_code(rep.code))


@pytest.mark.parametrize("kind, given, missing", [
    ("thm42", ("scheme", "partition"), "index"),
    ("thm42", ("partition", "index"), "scheme"),
    ("thm43", ("partition", "indices"), "scheme"),
    ("thm43", ("scheme", "indices"), "partition"),
    ("thm43", ("scheme", "partition"), "indices"),
    ("thm51", (), "matrices"),
    ("thm54", ("matrices",), "partition"),
    ("thm59", (), "matrices"),
    ("cor45", ("group", "indices"), "graph"),
    ("cor45", ("graph", "indices"), "group"),
])
def test_pipeline_missing_input_is_invalid_spec(kind, given, missing, k44_scheme,
                                                order4_pair, c4):
    inputs = _structural_inputs(k44_scheme, order4_pair, c4)
    with pytest.raises(InvalidSpec, match=f"^{kind} needs {missing}$"):
        theorem_pipeline(kind, p=2, **{name: inputs[name] for name in given})


@pytest.mark.parametrize("kind, stray", [
    ("thm51", "graph"), ("thm59", "group"), ("cor45", "matrices"),
    ("thm42", "indices"), ("thm43", "weight"), ("thm52", "partition"),
])
def test_pipeline_stray_input_is_invalid_spec(kind, stray, k44_scheme, order4_pair, c4):
    # every input the kind needs, and one it neither needs nor takes
    inputs = _structural_inputs(k44_scheme, order4_pair, c4)
    given = PIPELINES[kind].needs + (stray,)
    with pytest.raises(InvalidSpec, match=f"^{kind} takes no {stray}$"):
        theorem_pipeline(kind, p=2, **{name: inputs[name] for name in given})


def _structural_inputs(k44_scheme, order4_pair, c4):
    from lcdsubspace.drg import PermutationGroup

    return {"scheme": k44_scheme, "partition": EquitablePartition.singletons(8),
            "index": 1, "indices": (1,), "matrices": list(order4_pair.matrices),
            "weight": 4, "graph": c4, "group": PermutationGroup(4, [(0, 1, 2, 3)])}


def test_pipeline_unknown_kind():
    with pytest.raises(InvalidSpec):
        theorem_pipeline("thm99", p=2)
