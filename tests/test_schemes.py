import numpy as np
import pytest

import oracles
from lcdsubspace.errors import (
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
