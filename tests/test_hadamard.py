import hashlib

import numpy as np
import pytest

from lcdsubspace.constructions import theorem_pipeline
from lcdsubspace.errors import (
    BadAlphabet,
    BudgetExhausted,
    DimensionMismatch,
    GramFailure,
    HypothesisFailed,
    InvalidSpec,
    NotRegular,
    NotSquareOrder,
    NotUnbiased,
    OrderTooLarge,
    UnequalCells,
)
from lcdsubspace.hadamard import (
    HadamardMatrix,
    UnbiasedSet,
    WeighingMatrix,
    all_hadamard,
    are_unbiased,
    bush_unbiased_pair_16,
    gramian_B,
    is_bush,
    is_regular,
    load_bundled,
    partition_quotients_of_set,
    search_unbiased_extension,
    sylvester,
    validate,
)
from lcdsubspace.schemes import EquitablePartition


def regular_order4():
    J = np.ones((4, 4), dtype=np.int64)
    return HadamardMatrix(J - 2 * np.eye(4, dtype=np.int64))


def test_validation():
    H = HadamardMatrix([[1, 1], [1, -1]])
    n = H.order
    assert n == 2
    assert (H.entries @ H.entries.T == n * np.eye(n, dtype=np.int64)).all()
    assert (H.entries.T @ H.entries == n * np.eye(n, dtype=np.int64)).all()
    with pytest.raises(BadAlphabet):
        HadamardMatrix([[1, 2], [1, -1]])
    with pytest.raises(GramFailure):
        HadamardMatrix([[1, 1], [1, 1]])
    assert validate([[1, 1], [1, -1]], "hadamard").order == 2


def test_weighing_validation():
    W = WeighingMatrix(np.eye(3, dtype=np.int64))
    assert W.weight == 1 and W.order == 3
    w49 = WeighingMatrix(np.eye(4, dtype=np.int64) * 0 + sylvester(2).entries)
    assert w49.weight == 4
    with pytest.raises(GramFailure):
        WeighingMatrix([[1, 0], [0, 1]], weight=2)
    bad = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    with pytest.raises(GramFailure):
        WeighingMatrix(bad)
    # nonzero counts per row and per column equal the weight
    counts = (w49.entries != 0).sum(axis=1)
    assert (counts == w49.weight).all()


def test_hadamard_is_a_weighing_matrix_of_full_weight():
    H = sylvester(2)
    assert isinstance(H, WeighingMatrix) and (H.order, H.weight) == (4, 4)
    assert UnbiasedSet([H]).weight == 4
    # equal entries, different types
    assert H != WeighingMatrix(H.entries)
    with pytest.raises(DimensionMismatch):
        WeighingMatrix(np.zeros((0, 0), dtype=np.int64))
    with pytest.raises(InvalidSpec):
        WeighingMatrix(np.zeros((2, 2), dtype=np.int64))


def test_sylvester():
    for k in range(5):
        H = sylvester(k)
        assert H.order == 2 ** k
    with pytest.raises(OrderTooLarge):
        sylvester(9)


def test_regularity_pinned():
    H4 = sylvester(2)
    assert not is_regular(H4)
    assert H4.entries.sum(axis=1).tolist() == [4, 0, 0, 0]
    assert is_regular(regular_order4())
    with pytest.raises(NotSquareOrder):
        is_regular(sylvester(1))


def test_bush_pinned(bush_pair):
    A, B = bush_pair
    assert is_bush(A) and is_bush(B)
    assert not is_bush(sylvester(4))
    with pytest.raises(NotSquareOrder):
        is_bush(sylvester(3))
    # bush implies regular with row sums sqrt(n) = 4
    assert is_regular(A)
    assert A.entries.sum(axis=1).tolist() == [4] * 16
    # diagonal blocks are all-ones, off-diagonal blocks have zero line sums
    for s in range(4):
        blk = A.entries[4 * s:4 * s + 4, 4 * s:4 * s + 4]
        assert (blk == 1).all()


def test_unbiased_pinned(bush_pair):
    H = sylvester(2)
    self_chk = are_unbiased(H, H)
    assert not self_chk.ok
    # odd case: order 2 has no integer sqrt, so the verdict is false
    chk2 = are_unbiased(sylvester(1), HadamardMatrix([[1, -1], [1, 1]]))
    assert not chk2.ok and chk2.witness is not None
    A, B = bush_pair
    good = are_unbiased(A, B)
    assert good.ok
    # the quotient witness is itself a Hadamard matrix of the same order
    Q = good.quotient
    assert (A.entries @ B.entries.T == 4 * Q.entries).all()
    assert are_unbiased(B, A).ok
    with pytest.raises(DimensionMismatch):
        are_unbiased(H, sylvester(1))


def test_unbiased_set_construction(bush_pair):
    A, B = bush_pair
    us = UnbiasedSet([A, B])
    assert len(us.matrices) == 2 and us.order == 16
    with pytest.raises(NotUnbiased):
        UnbiasedSet([sylvester(2), sylvester(2)])
    ext = UnbiasedSet([A]).extended(B)
    assert len(ext.matrices) == 2


def test_unbiased_set_validates_members_as_its_kind():
    # a Hadamard matrix in a weighing set is the W(n, n) of its entries
    us = UnbiasedSet([sylvester(2)], "weighing")
    assert type(us.matrices[0]) is WeighingMatrix and us.weight == 4
    # the identity is a W(4, 1) but not a Hadamard matrix
    eye = WeighingMatrix(np.eye(4, dtype=np.int64))
    with pytest.raises(BadAlphabet):
        UnbiasedSet([eye], "hadamard")
    for M in (eye, sylvester(2)):
        with pytest.raises(InvalidSpec):
            UnbiasedSet([M], "orthogonal")
    # through the pipelines: a failed hypothesis, not a traceback
    with pytest.raises(HypothesisFailed) as exc:
        theorem_pipeline("thm51", p=2, matrices=[eye])
    assert exc.value.name == "matrices are valid and pairwise unbiased"
    H = sylvester(1)
    with pytest.raises(HypothesisFailed) as exc:
        theorem_pipeline("thm52", p=2, matrices=[H, H])
    assert exc.value.name == "matrices are valid and pairwise unbiased"


def test_unbiased_set_rejects_a_repeated_matrix():
    # at weight 1 a matrix is unbiased with itself
    eye = WeighingMatrix(np.eye(3, dtype=np.int64))
    assert are_unbiased(eye, eye).ok
    with pytest.raises(NotUnbiased) as exc:
        UnbiasedSet([eye, eye], "weighing")
    assert exc.value.witness == {"pair": (0, 1)}
    with pytest.raises(NotUnbiased):
        UnbiasedSet([[[1]], [[-1]], [[1]]])


def test_all_hadamard_counts():
    assert len(all_hadamard(1)) == 2
    assert len(all_hadamard(2)) == 8
    assert len(all_hadamard(4)) == 768
    assert all_hadamard(4) is all_hadamard(4)
    with pytest.raises(OrderTooLarge):
        all_hadamard(8)


def test_search_order4():
    seed = UnbiasedSet([sylvester(2)])
    out = search_unbiased_extension(seed, use_bound=False)
    assert out.found is not None and len(out.found.matrices) == 2
    A, B = out.found.matrices
    assert are_unbiased(A, B).ok
    # determinism: same seed set and budget give the same matrix
    again = search_unbiased_extension(seed, use_bound=False)
    assert (again.found.matrices[1].entries == B.entries).all()
    assert again.nodes == out.nodes
    # no third matrix exists: the completed scan proves maximality
    final = search_unbiased_extension(out.found, use_bound=False)
    assert final.found is None and final.proven_exhausted


def test_all_hadamard_matches_a_brute_force_scan():
    for n in (1, 2, 4):
        masks = np.arange(1 << (n * n))[:, None] >> np.arange(n * n) & 1
        signs = (1 - 2 * masks).reshape(-1, n, n)
        gram = signs @ signs.transpose(0, 2, 1)
        hadamard = signs[(gram == n * np.eye(n, dtype=np.int64)).all(axis=(1, 2))]
        assert {H.tobytes() for H in hadamard} == {
            H.entries.tobytes() for H in all_hadamard(n)}


def test_search_order16_pinned():
    out = search_unbiased_extension(UnbiasedSet([sylvester(4)]))
    assert out.nodes == 365
    A, B = out.found
    assert are_unbiased(A, B).ok
    assert hashlib.sha256(B.entries.tobytes()).hexdigest() == (
        "a6fca154de0fa09f1242aca13ff66b978e35d812c9f4af5e5104442ac8375acf")


W64 = [[1, 1, 1, 1, 0, 0], [1, 1, -1, -1, 0, 0], [1, -1, 0, 0, 1, 1],
       [1, -1, 0, 0, -1, -1], [0, 0, 1, -1, 1, -1], [0, 0, 1, -1, -1, 1]]


def test_weighing_search_pinned():
    # the first W(6, 4) unbiased with W64 is found after 257 candidates,
    # though its last row is candidate 28: the search backtracks
    seed = UnbiasedSet([W64], "weighing")
    out = search_unbiased_extension(seed)
    assert out.nodes == 257
    assert out.found.matrices[1].entries.tolist() == [
        [1, 1, 1, -1, 0, 0], [1, 1, -1, 1, 0, 0], [1, -1, 0, 0, 1, -1],
        [1, -1, 0, 0, -1, 1], [0, 0, 1, 1, 1, 1], [0, 0, 1, 1, -1, -1]]
    third = search_unbiased_extension(out.found)
    assert third.nodes == 58 and len(third.found) == 3


def test_search_skips_seed_members():
    # at weight 1 every signed permutation matrix is unbiased with every
    # other, itself included
    eye = np.eye(3, dtype=np.int64)
    out = search_unbiased_extension(UnbiasedSet([eye], "weighing"))
    assert out.found.matrices[1].entries.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    one = search_unbiased_extension(UnbiasedSet([[[1]]]))
    assert one.found.matrices[1].entries.tolist() == [[-1]]
    final = search_unbiased_extension(one.found)
    assert final.found is None and final.proven_exhausted


def test_search_budget_zero():
    with pytest.raises(BudgetExhausted):
        search_unbiased_extension(UnbiasedSet([sylvester(2)]), budget=0)


def test_gramian_pinned(bush_uset):
    B1, B2, B3 = gramian_B(bush_uset)
    n48 = 48
    for M in (B1, B2, B3):
        assert M.shape == (n48, n48)
        assert set(np.unique(M)) <= {0, 1}
    # diagonal blocks of B = B1 - B2 vanish
    B = B1 - B2
    for s in range(3):
        assert not B[16 * s:16 * s + 16, 16 * s:16 * s + 16].any()
    assert (B == B.T).all()
    total = B1 + B2 + B3 + np.eye(n48, dtype=np.int64)
    assert (total == np.ones((n48, n48), dtype=np.int64)).all()


def test_gramian_rejections(bush_pair):
    from lcdsubspace.errors import OddN

    # order 4 means n = 1, and odd n cannot carry a regular unbiased pair
    pair4 = search_unbiased_extension(UnbiasedSet([sylvester(2)])).found
    with pytest.raises(OddN):
        gramian_B(pair4)
    # negating one row keeps Hadamard and unbiasedness but kills regularity
    A, B = bush_pair
    flipped = A.entries.copy()
    flipped[0] *= -1
    us = UnbiasedSet([HadamardMatrix(flipped), B])
    with pytest.raises(NotRegular):
        gramian_B(us)


def test_quotients_singleton(bush_uset):
    singles = EquitablePartition.singletons(16)
    qs = partition_quotients_of_set(bush_uset, singles)
    for M, H in zip(qs, bush_uset.matrices):
        assert (np.asarray(M) == H.entries).all()


def test_quotients_one_cell_regular():
    us = UnbiasedSet([regular_order4()])
    onecell = EquitablePartition([tuple(range(4))], 4)
    (M,) = partition_quotients_of_set(us, onecell)
    assert np.asarray(M).tolist() == [[2]]


def test_quotients_two_cell_pinned():
    us = UnbiasedSet([regular_order4()])
    part = EquitablePartition([(0, 1), (2, 3)], 4)
    (M,) = partition_quotients_of_set(us, part)
    assert np.asarray(M).tolist() == [[0, 2], [2, 0]]
    # defining identity H C = C M over the integers
    C = part.char_matrix
    assert (regular_order4().entries @ C == C @ np.asarray(M)).all()


def test_quotients_block_split_on_pair(bush_uset):
    # grouping whole Bush blocks two by two is equitable for both matrices
    part = EquitablePartition([tuple(range(8)), tuple(range(8, 16))], 16)
    qs = partition_quotients_of_set(bush_uset, part)
    for M in qs:
        assert np.asarray(M).tolist() == [[4, 0], [0, 4]]


def test_quotients_reject_unequal_cells():
    us = UnbiasedSet([sylvester(2)])
    part = EquitablePartition([(0,), (1, 2, 3)], 4)
    with pytest.raises(UnequalCells):
        partition_quotients_of_set(us, part)


def test_bundled_matches_constructed(bush_pair):
    A, B = bush_pair
    for name, H in (("bush16_a.txt", A), ("bush16_b.txt", B)):
        md = load_bundled(name)
        assert md.kind == "pm1"
        assert (md.matrix == H.entries).all()
