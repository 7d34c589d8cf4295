import random

import numpy as np
import pytest

import oracles
from lcdsubspace import schemes
from lcdsubspace.errors import (
    InternalInconsistency,
    MissingIdentity,
    NotAPartition,
    NotClosed,
    NotEquitable,
    NotSymmetric,
    TooManyClasses,
)
from lcdsubspace.schemes import (
    EquitablePartition,
    divisibility_screen,
    quotient_matrices,
    scheme_from_matrices,
    verify_equitable,
    verify_quotient_algebra,
)


def complete_graph_scheme(n):
    I = np.eye(n, dtype=np.int64)
    J = np.ones((n, n), dtype=np.int64)
    return scheme_from_matrices([I, J - I])


def test_complete_graph_scheme_pinned():
    for n in (2, 3, 5):
        sch = complete_graph_scheme(n)
        assert sch.classes == 1
        assert int(sch.tensor[1, 1, 0]) == n - 1
        assert sch.valencies == (1, n - 1)


def test_petersen_tensor_pinned(petersen_scheme):
    T = petersen_scheme.tensor
    assert int(T[1, 1, 1]) == 0
    assert int(T[1, 1, 2]) == 1
    assert petersen_scheme.classes == 2
    assert petersen_scheme.valencies == (1, 3, 6)


def test_tensor_matches_triple_counting(petersen_scheme, c4_scheme, k44_scheme):
    for sch in (petersen_scheme, c4_scheme, k44_scheme):
        mats = [m.tolist() for m in sch.mats]
        expect = oracles.intersection_tensor(mats)
        assert expect is not None
        for i in range(sch.classes + 1):
            for j in range(sch.classes + 1):
                for k in range(sch.classes + 1):
                    assert int(sch.tensor[i, j, k]) == expect[i][j][k]


def test_bose_mesner_closure_holds(petersen_scheme):
    sch = petersen_scheme
    for i, A in enumerate(sch.mats):
        for j, B in enumerate(sch.mats):
            prod = np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64)
            combo = sum(int(sch.tensor[i, j, k]) * np.asarray(sch.mats[k])
                        for k in range(sch.classes + 1))
            assert (prod == combo).all()


def test_rejections():
    I = np.eye(3, dtype=np.int64)
    J = np.ones((3, 3), dtype=np.int64)
    A = J - I
    with pytest.raises(NotAPartition):
        scheme_from_matrices([I, A, A])
    with pytest.raises(MissingIdentity):
        scheme_from_matrices([A, I - I + np.eye(3, dtype=np.int64) * 0 + (J - A - I)])
    asym = np.zeros((3, 3), dtype=np.int64)
    asym[0, 1] = 1
    rest = J - I - asym
    with pytest.raises(NotSymmetric):
        scheme_from_matrices([I, asym, rest])
    # path graph relations: supports partition fine but products escape
    P = np.array(oracles.cycle_adjacency(4), dtype=np.int64)
    P[0, 1] = P[1, 0] = 0
    P[0, 3] = P[3, 0] = 1  # now a path 1-2-3-0 relabelled; still symmetric
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    Jp = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(NotClosed):
        scheme_from_matrices([np.eye(3, dtype=np.int64), path, Jp - np.eye(3, dtype=np.int64) - path])


def distance_matrices(adj):
    """The distance classes of a connected graph, by BFS, as 0/1 matrices."""
    dist = np.array(oracles.bfs_distances(adj), dtype=np.int64)
    return [(dist == k).astype(np.int64) for k in range(dist.max() + 1)]


def test_not_closed_names_the_first_product_and_its_least_relation():
    # pinned on the relation-by-relation loop: the products A_i A_j, i <= j,
    # in order, and the least relation k on which the first failing one is
    # not constant
    eye = np.eye(3, dtype=np.int64)
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    with pytest.raises(NotClosed) as exc:
        scheme_from_matrices([eye, path, np.ones((3, 3), dtype=np.int64) - eye - path])
    assert exc.value.witness == (1, 1, 0)
    # A_1 is a perfect matching, so A_1 A_1 = I is closed; A_1 A_2 fails on
    # relations 2 and 3, and the first pair in row-major order where it
    # differs from its value at its relation's first pair lies in relation
    # 3, but relation 2 is named
    label = np.array([[0, 1, 3, 2], [1, 0, 3, 2], [3, 3, 0, 1], [2, 2, 1, 0]])
    mats = [(label == k).astype(np.int64) for k in range(4)]
    P = mats[1] @ mats[2]
    assert {int(v) for v in P[label == 2]} == {0, 1} == {int(v) for v in P[label == 3]}
    first = {k: P[label == k][0] for k in range(4)}
    bad = [(x, y) for x in range(4) for y in range(4) if P[x, y] != first[label[x, y]]]
    assert label[bad[0]] == 3
    with pytest.raises(NotClosed) as exc:
        scheme_from_matrices(mats)
    assert exc.value.witness == (1, 2, 2)


def test_empty_relation_has_zero_intersection_numbers():
    # an all-zero matrix passes the partition check; every p_ij^k that
    # involves it is 0, and the rest are the complete graph's
    n = 4
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    for at in (1, 2):
        mats = [eye, zero, zero]
        mats[3 - at] = np.ones((n, n), dtype=np.int64) - eye
        T = scheme_from_matrices(mats).tensor
        for S in (T[at], T[:, at], T[:, :, at]):
            assert not S.any()
        full = 3 - at
        assert [int(T[i, j, k]) for i, j, k in [(0, 0, 0), (0, full, full), (full, full, 0),
                                                (full, full, full)]] == [1, 1, n - 1, n - 2]
    T = scheme_from_matrices([np.zeros((0, 0), dtype=np.int64)] * 2).tensor
    assert T.shape == (2, 2, 2) and not T.any()


@pytest.mark.parametrize("adj", [oracles.cycle_adjacency(10), oracles.cycle_adjacency(12),
                                 oracles.petersen_adjacency()],
                         ids=["C10", "C12", "Petersen"])
def test_tensor_matches_the_oracle_on_distance_schemes(adj):
    mats = distance_matrices(adj)
    sch = scheme_from_matrices(mats)
    assert sch.tensor.tolist() == oracles.intersection_tensor([M.tolist() for M in mats])


def set_recount_witness(mats, tensor):
    """The first (i, j, k, x, y) at which the spot check's sample, recounted
    with Python sets of neighbours, disagrees with tensor; None if none."""
    rng = random.Random(schemes._SPOT_SEED)
    nbrs = [[set(np.flatnonzero(M[x]).tolist()) for x in range(len(M))] for M in mats]
    for k, M in enumerate(mats):
        pos = np.argwhere(M == 1)
        if not len(pos):
            continue
        picks = [pos[rng.randrange(len(pos))] for _ in range(schemes._SPOT_PAIRS)]
        for x, y in picks:
            for i in range(len(mats)):
                for j in range(len(mats)):
                    if len(nbrs[i][x] & nbrs[j][y]) != tensor[i, j, k]:
                        return (i, j, k, int(x), int(y))
    return None


def test_spot_check_names_the_witness_of_a_set_recount():
    rng = random.Random(3201)
    for adj in (oracles.cycle_adjacency(10), oracles.petersen_adjacency()):
        mats = distance_matrices(adj)
        tensor = scheme_from_matrices(mats).tensor
        assert set_recount_witness(mats, tensor) is None
        d = len(mats) - 1
        for _ in range(6):
            i, j, k = (rng.randrange(d + 1) for _ in range(3))
            bad = tensor.copy()
            bad[i, j, k] += rng.choice([-1, 1, 2])
            want = set_recount_witness(mats, bad)
            assert want is not None and want[2] == k
            with pytest.raises(InternalInconsistency) as exc:
                schemes._spot_check_tensor(mats, bad)
            assert exc.value.witness == want


def test_neighbour_masks_set_bit_y_for_neighbour_y():
    rng = np.random.default_rng(3202)
    for n in (1, 7, 8, 9, 20, 96):
        M = rng.integers(0, 2, (n, n))
        assert schemes._neighbour_masks(M) == [
            sum(1 << int(y) for y in np.flatnonzero(row)) for row in M]


def test_too_many_classes():
    n = 22
    mats = [np.eye(n, dtype=np.int64)]
    for i in range(1, n):
        M = np.zeros((n, n), dtype=np.int64)
        # unused beyond the class count check; screen rejects first
        mats.append(M)

    class Fake:
        classes = n - 1
        tensor = np.zeros((n, n, n), dtype=np.int64)

    with pytest.raises(TooManyClasses):
        divisibility_screen(Fake(), 2)


def test_partition_constructors():
    p = EquitablePartition.singletons(3)
    assert p.cells == ((0,), (1,), (2,))
    b = EquitablePartition.contiguous_blocks(6, 3)
    assert b.cells == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(NotAPartition):
        EquitablePartition([(0, 1), (1, 2)], 3)
    with pytest.raises(NotAPartition):
        EquitablePartition([(0, 1)], 3)


def test_path_quotient_pinned():
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    part = EquitablePartition([(0, 2), (1,)], 3)
    assert verify_equitable(part, [path]).ok
    qset = quotient_matrices(part, [path])
    (M,) = qset.quotients
    assert M.tolist() == [[0, 1], [2, 0]]
    assert qset.cell_sizes == (2, 1) and not qset.equal_cells
    # the defining identity A H = H M over the integers
    H = part.char_matrix
    assert (path @ H == H @ M).all()


def test_not_equitable_witness():
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    part = EquitablePartition([(0, 1), (2,)], 3)
    chk = verify_equitable(part, [path])
    assert not chk.ok and chk.witness is not None
    with pytest.raises(NotEquitable):
        quotient_matrices(part, [path])


def test_not_equitable_witness_is_in_the_first_failing_cell():
    # the cells go by first point, (0, 5), (1, 2), (3, 4), however given.
    # The column sums A^T H fail at points 2, 4 and 5, so the lowest failing
    # point, 2, lies in cell 1, but the witness is cell 0's point 5, at its
    # first differing cell; the identity before A is equitable, and A's row
    # sums are.  Witnesses recorded on the cell-by-cell check
    A = np.array([[0, 0, 1, 1, 1, 1], [0, 0, 1, 0, 1, 0], [0, 0, 1, 0, 1, 0],
                  [0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 1], [1, 0, 1, 1, 1, 0]])
    eye = np.eye(6, dtype=np.int64)
    for cells in ([(0, 5), (1, 2), (3, 4)], [(4, 3), (2, 1), (5, 0)]):
        part = EquitablePartition(cells, 6)
        for mats, want in (([eye, A], {"matrix": 1, "side": "col", "cell": 0,
                                       "point": 5, "target_cell": 2}),
                           ([A.T], {"matrix": 0, "side": "row", "cell": 0,
                                    "point": 5, "target_cell": 2})):
            chk = verify_equitable(part, mats)
            assert not chk.ok and chk.witness == want
            with pytest.raises(NotEquitable) as err:
                quotient_matrices(part, mats)
            assert err.value.witness == want


def test_c6_antipodal_quotient_pinned(c6):
    A = c6.adjacency
    part = EquitablePartition([(0, 3), (1, 4), (2, 5)], 6)
    (M,) = quotient_matrices(part, [A]).quotients
    assert M.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_trivial_partitions(petersen_scheme):
    sch = petersen_scheme
    n = sch.size
    singles = EquitablePartition.singletons(n)
    qs = quotient_matrices(singles, sch.mats)
    for M, A in zip(qs.quotients, sch.mats):
        assert (M == np.asarray(A)).all()
    onecell = EquitablePartition([tuple(range(n))], n)
    qs = quotient_matrices(onecell, sch.mats)
    assert qs.equal_cells
    for M, v in zip(qs.quotients, sch.valencies):
        assert M.tolist() == [[v]]


def test_quotient_algebra_identity(petersen_scheme, c4_scheme):
    for sch, part in (
        (petersen_scheme, EquitablePartition.singletons(petersen_scheme.size)),
        (c4_scheme, EquitablePartition([(0, 2), (1, 3)], 4)),
        (c4_scheme, EquitablePartition([tuple(range(4))], 4)),
    ):
        chk = verify_equitable(part, sch.mats)
        assert chk.ok
        qset = quotient_matrices(part, sch.mats)
        assert verify_quotient_algebra(sch, qset).ok


def test_divisibility_screen_pinned(c4_scheme, petersen_scheme):
    got = divisibility_screen(c4_scheme, 2)
    assert got == [(1,)]
    # recompute the petersen screen straight from the tensor
    T = petersen_scheme.tensor
    good = [i for i in range(3) if not (T[i, i, :] % 2).any()]
    for I in divisibility_screen(petersen_scheme, 2):
        for i in I:
            assert i in good
            for j in I:
                assert not (T[i, j, :] % 2).any()


def test_screen_on_complete_graph():
    sch = complete_graph_scheme(5)
    # p_{11} = (4, 3): 2 divides 4 but not 3, so nothing qualifies
    assert divisibility_screen(sch, 2) == []
    sch9 = complete_graph_scheme(9)
    # p_{11} = (8, 7)? valency 8, p_{11}^1 = 7: screen at p = 2 stays empty
    assert divisibility_screen(sch9, 2) == []
