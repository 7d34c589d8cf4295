import random

import numpy as np
import pytest

import oracles
from lcdsubspace.errors import (
    AmbientMismatch,
    DimensionMismatch,
    EncodingOutOfRange,
    FieldMismatch,
    NotLCD,
)
from lcdsubspace.gf import _gf2_pack, _gf2_pivots
from lcdsubspace.subspaces import (
    Subspace,
    complement_coordinates,
    distance,
    dual,
    dual_meets,
    intersect,
    is_lcd,
    pairwise_lcd,
    projector_complement,
    span,
    subspace_sum,
)


def rand_subspace(rng, field, n, k):
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
    return Subspace.span(field, n, rows)


def test_canonical_form_and_equality(f3):
    a = span(f3, 3, [[1, 1, 0], [0, 0, 1]])
    b = span(f3, 3, [[2, 2, 1], [0, 0, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    # basis rows are in reduced echelon form with no zero rows
    R, piv = f3.rref(a.basis)
    assert R.tolist() == a.basis.tolist()
    assert len(piv) == a.dim


def test_encodings_outside_the_field_are_rejected(f2, f9):
    # 3 is not an element of GF(2); either row order must fail the same way
    # instead of giving a canonical form that depends on the order
    with pytest.raises(EncodingOutOfRange):
        Subspace(f2, 2, [[1, 0], [3, 1]])
    with pytest.raises(EncodingOutOfRange):
        Subspace(f2, 2, [[3, 1], [1, 0]])
    with pytest.raises(EncodingOutOfRange):
        span(f9, 2, [[0, 9]])
    with pytest.raises(EncodingOutOfRange):
        span(f9, 2, [[-1, 0]])


def test_zero_and_full(f2):
    z = Subspace.zero(f2, 3)
    full = Subspace.full(f2, 3)
    assert z.dim == 0 and full.dim == 3
    assert z.basis.shape == (0, 3)
    assert distance(z, full) == 3
    assert z.contains([0, 0, 0])
    assert not z.contains([1, 0, 0])
    assert full.contains([1, 1, 1])


def test_contains_matches_enumeration(f3, f9):
    rng = random.Random(1)
    for f in (f3, f9):
        U = rand_subspace(rng, f, 4, 2)
        vecs = oracles.span_tuples(f, 4, U.basis.tolist())
        assert len(vecs) == f.q ** U.dim
        for v in vecs:
            assert U.contains(list(v))
        misses = 0
        for _ in range(30):
            w = tuple(rng.randrange(f.q) for _ in range(4))
            if w not in vecs:
                misses += 1
                assert not U.contains(list(w))
        assert misses > 0


def test_pinned_intersection(f3):
    U = span(f3, 3, [[1, 0, 0], [0, 1, 0]])
    W = span(f3, 3, [[0, 1, 0], [0, 0, 1]])
    got = intersect(U, W)
    assert got == span(f3, 3, [[0, 1, 0]])


def test_sum_intersect_duality_randomized(all_fields):
    rng = random.Random(42)
    for f in all_fields:
        for _ in range(25):
            n = rng.randrange(1, 5)
            U = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            W = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            su = subspace_sum(U, W)
            iu = intersect(U, W)
            assert su.dim + iu.dim == U.dim + W.dim
            uset = oracles.span_tuples(f, n, U.basis.tolist())
            wset = oracles.span_tuples(f, n, W.basis.tolist())
            assert oracles.dim_of_span(f, uset & wset) == iu.dim
            for v in iu.basis.tolist():
                assert tuple(v) in uset and tuple(v) in wset


def test_dual_matches_enumeration(f2, f3):
    rng = random.Random(8)
    for f in (f2, f3):
        for _ in range(20):
            n = rng.randrange(1, 5)
            U = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            D = dual(U)
            assert D.dim == n - U.dim
            expect = oracles.dual_tuples(f, n, U.basis.tolist())
            got = oracles.span_tuples(f, n, D.basis.tolist())
            assert got == expect
            assert dual(D) == U


def test_pinned_distance(f3):
    assert distance(span(f3, 2, [[1, 0]]), span(f3, 2, [[1, 1]])) == 2


def test_distance_is_a_metric(all_fields):
    rng = random.Random(17)
    for f in all_fields:
        subs = [rand_subspace(rng, f, 3, rng.randrange(0, 4)) for _ in range(8)]
        for U in subs:
            assert distance(U, U) == 0
            for W in subs:
                d = distance(U, W)
                assert d == distance(W, U)
                assert d == oracles.subspace_distance(
                    f, 3, U.basis.tolist(), W.basis.tolist())
                if d == 0:
                    assert U == W
                for T in subs:
                    assert d <= distance(U, T) + distance(T, W)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 192])
def test_echelon_table_is_the_pivot_table_of_the_packed_basis(f2, n):
    # the table is built from the rref basis with no elimination; it must
    # be what eliminating the packed basis gives, on every kind of space
    rng = random.Random(1500 + n)
    spaces = [Subspace.zero(f2, n), Subspace.full(f2, n)]
    spaces += [rand_subspace(rng, f2, n, rng.randrange(0, n + 2)) for _ in range(6)]
    spaces += [U.dual() for U in spaces]
    for U in spaces:
        assert U._echelon is None
        table = U.echelon()
        assert table == _gf2_pivots(_gf2_pack(U.basis))
        assert len(table) == U.dim
        assert U.echelon() is table
    # a dual is computed once, so its table is kept with it
    assert spaces[2].dual() is spaces[2].dual()
    assert {U.dim for U in spaces} >= {0, n}


def test_gf2_distance_matches_the_rank_formula(f2):
    # d(U, W) = 2 rank [U; W] - rank U - rank W, each rank by the xor-basis
    # oracle, on random pairs, U = W, U inside W and the zero space
    rng = random.Random(1501)

    def rank(*spaces):
        return oracles.gf2_rank([row for U in spaces for row in U.basis.tolist()])

    for n in (1, 7, 8, 9, 65, 192):
        U = rand_subspace(rng, f2, n, rng.randrange(0, n + 1))
        W = rand_subspace(rng, f2, n, rng.randrange(0, n + 1))
        inside = U + rand_subspace(rng, f2, n, rng.randrange(1, 4))
        spaces = [Subspace.zero(f2, n), Subspace.full(f2, n), U, W, inside, U.dual()]
        for A in spaces:
            for B in spaces:
                assert distance(A, B) == 2 * rank(A, B) - rank(A) - rank(B)
        assert distance(U, U) == 0
        assert distance(U, inside) == inside.dim - U.dim
        assert distance(Subspace.zero(f2, n), U) == U.dim
        if n <= 9:
            assert distance(U, W) == oracles.subspace_distance(
                f2, n, U.basis.tolist(), W.basis.tolist())


def test_echelon_table_leaves_equality_and_hash_alone(f2):
    rng = random.Random(1502)
    rows = [[rng.randrange(2) for _ in range(70)] for _ in range(12)]
    U = Subspace(f2, 70, rows)
    W = Subspace(f2, 70, rows[::-1])
    U.echelon()
    assert U._echelon is not None and W._echelon is None
    assert U == W and W == U
    assert hash(U) == hash(W)
    assert len({U, W}) == 1
    assert W._echelon is None


def test_pinned_lcd_checks(f2, f3):
    assert not is_lcd(span(f2, 2, [[1, 1]]))
    assert is_lcd(span(f3, 2, [[1, 1]]))
    chk = is_lcd(span(f3, 2, [[1, 1]]))
    assert chk.gram_det != 0 and chk.radical_dim == 0
    # a self-dual plane is its own radical
    chk = is_lcd(span(f2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert chk.gram_det == 0 and chk.radical_dim == 2


def test_is_lcd_matches_definition_randomized(all_fields):
    rng = random.Random(23)
    radicals = set()
    for f in all_fields:
        for _ in range(30):
            n = rng.randrange(1, 5)
            U = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            radical = intersect(U, dual(U)).dim
            chk = is_lcd(U)
            assert bool(chk) == (radical == 0)
            assert chk.radical_dim == radical
            radicals.add(radical)
    assert max(radicals) > 0    # nonzero radical dimensions were checked too


def test_dual_meets_matches_direct_intersections(all_fields, excess_rank_asks):
    # every ordered pair in lexicographic order, from one excess rank per
    # unordered pair {a, b}, taken at (a, b) in that order
    rng = random.Random(47)
    for f in all_fields:
        for _ in range(8):
            n = rng.randrange(1, 6)
            spaces = [rand_subspace(rng, f, n, rng.randrange(0, n + 1))
                      for _ in range(rng.randrange(1, 5))]
            s = len(spaces)
            excess_rank_asks.clear()
            got = list(dual_meets(spaces))
            assert excess_rank_asks == [(spaces[a], spaces[b].dual(), None)
                                        for a in range(s) for b in range(a, s)]
            assert got == [((i, j), intersect(spaces[i], dual(spaces[j])).dim)
                           for i in range(s) for j in range(s)]


def test_dual_meets_takes_each_dual_when_a_pair_first_needs_it(all_fields):
    # span(e1, e2) meets span(e1)^perp = span(e2, e3), so an LCD check stops
    # at (0, 1): no pair of the last two spaces has been ranked, and on
    # every field their duals are not taken
    e = np.eye(3, dtype=np.int64)
    for f in all_fields:
        spaces = [span(f, 3, e[:2]), span(f, 3, e[:1]), span(f, 3, e[1:2]), span(f, 3, e[2:])]
        meets = dual_meets(spaces)
        assert [next(meets), next(meets)] == [((0, 0), 0), ((0, 1), 1)]
        assert [U._dual is not None for U in spaces] == [True, True, False, False]
        assert [m for _, m in meets] == [intersect(spaces[i], dual(spaces[j])).dim
                                         for i in range(4) for j in range(4)][2:]


def test_lcd_tests_of_one_or_two_subspaces_take_one_rank(all_fields, excess_rank_asks):
    # pairwise_lcd ranks [U; W^perp] once, and only for equal dimensions;
    # is_lcd ranks [U; U^perp] once
    rng = random.Random(53)
    for f in all_fields:
        for _ in range(6):
            U = rand_subspace(rng, f, 4, rng.randrange(0, 5))
            W = rand_subspace(rng, f, 4, rng.randrange(0, 5))
            excess_rank_asks.clear()
            pairwise_lcd(U, W)
            assert excess_rank_asks == ([(U, W.dual(), None)] if U.dim == W.dim else [])
            excess_rank_asks.clear()
            is_lcd(U)
            assert excess_rank_asks == [(U, U.dual(), None)]


def test_pairwise_lcd(f3, all_fields):
    U = span(f3, 2, [[1, 1]])
    W = span(f3, 2, [[1, 0]])
    chk = pairwise_lcd(U, W)
    assert chk.ok and chk.det_nonsingular
    # W equals the dual of <(0,1)>, so the pair below must fail
    bad = pairwise_lcd(span(f3, 2, [[0, 1]]), span(f3, 2, [[1, 0]]))
    assert not bad.ok

    rng = random.Random(37)
    seen = set()
    for f in all_fields:
        for _ in range(40):
            n = rng.randrange(1, 5)
            U = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            W = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            expect = intersect(U, dual(W)).dim == 0 and intersect(W, dual(U)).dim == 0
            chk = pairwise_lcd(U, W)
            assert chk.ok == expect
            if U.dim != W.dim:
                # U n W^perp = 0 needs dim U <= dim W, and W n U^perp = 0 the reverse
                assert not chk.ok and chk.det_nonsingular is None
            else:
                # equal dimensions: the cross Gram matrix W U^T is singular
                # iff some nonzero vector of W lies in U^perp
                assert chk.det_nonsingular == chk.ok
            seen.add((f.q, chk.ok, U.dim == W.dim))
    # on every field both verdicts, and pairs of unequal dimensions
    for f in all_fields:
        assert {(f.q, True, True), (f.q, False, False)} <= seen, f
    assert any(not ok and equal for _, ok, equal in seen)


def test_projector_pinned_values(f3):
    P = projector_complement(span(f3, 2, [[1, 0]]))
    assert P.tolist() == [[0, 0], [0, 1]]
    assert projector_complement(Subspace.zero(f3, 2)).tolist() == np.eye(2).tolist()
    P = projector_complement(span(f3, 2, [[1, 1]]))
    v = f3.matmul(np.array([[1, 0]]), P)
    assert v.tolist() == [[2, 1]]


def test_projector_requires_lcd(f2):
    with pytest.raises(NotLCD, match="dimension 1"):
        projector_complement(span(f2, 2, [[1, 1]]))


def test_projector_properties_randomized(all_fields):
    rng = random.Random(31)
    for f in all_fields:
        done = 0
        while done < 10:
            n = rng.randrange(1, 5)
            U = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            if not is_lcd(U):
                continue
            done += 1
            P = projector_complement(U)
            assert f.matmul(P, P).tolist() == P.tolist()
            if U.dim:
                assert not f.matmul(U.basis, P).any()
            W = dual(U)
            if W.dim:
                assert f.matmul(W.basis, P).tolist() == W.basis.tolist()
            # kernel of P is exactly U, so it locates intersections
            R = rand_subspace(rng, f, n, rng.randrange(0, n + 1))
            lhs = intersect(R, U).dim
            rhs = R.dim - (f.rank(f.matmul(R.basis, P)) if R.dim else 0)
            assert lhs == rhs


def test_complement_coordinates_are_the_last_columns_of_the_inverse(f2, f3, f4, f9):
    # Q = W^T (W W^T)^-1 must be the last n - dim U columns of [U; W]^-1, on
    # LCD subspaces of every dimension from 0 to n
    rng = np.random.default_rng(37)
    for f in (f2, f3, f4, f9):
        dims = set()
        for n in (1, 3, 6, 9, 65):
            spaces = [Subspace(f, n, rng.integers(0, f.q, (int(rng.integers(0, n + 1)), n)))
                      for _ in range(12)]
            for U in spaces + [Subspace.zero(f, n), Subspace.full(f, n)]:
                if not is_lcd(U):
                    continue
                Q, W = complement_coordinates(U)
                assert W.tolist() == dual(U).basis.tolist()
                want = f.inv_matrix(np.vstack([U.basis, W]))[:, U.dim:]
                assert Q.shape == want.shape and Q.tolist() == want.tolist()
                dims.add((n, U.dim))
        assert len(dims) >= 20, f


def test_ambient_dimension_must_be_positive(f2, f3):
    # an ambient space of no coordinates once built, and its dual then
    # failed in numpy; a negative one failed in numpy at once
    for f in (f2, f3):
        for n in (0, -1):
            with pytest.raises(DimensionMismatch, match="at least 1"):
                Subspace(f, n)
            for make in (Subspace.zero, Subspace.full):
                with pytest.raises(DimensionMismatch):
                    make(f, n)
    assert Subspace(f3, 1).dual() == Subspace.full(f3, 1)


def test_mixed_operand_validation(f2, f3):
    U = span(f2, 2, [[1, 0]])
    with pytest.raises(FieldMismatch):
        intersect(U, span(f3, 2, [[1, 0]]))
    with pytest.raises(AmbientMismatch):
        intersect(U, span(f2, 3, [[1, 0, 0]]))
