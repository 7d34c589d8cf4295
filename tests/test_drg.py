import numpy as np
import pytest

import oracles
from lcdsubspace.drg import (
    DISTANCE_ENTRIES,
    Graph,
    PermutationGroup,
    check_distance_regular,
    intersection_array,
    orbit_partition,
    scheme_from_drg,
)
from lcdsubspace.errors import (
    Disconnected,
    NotAnAutomorphism,
    NotDistanceRegular,
    NotSymmetric,
    OrderTooLarge,
)


def test_graph_validation():
    with pytest.raises(NotSymmetric):
        Graph([[0, 1], [0, 0]])
    with pytest.raises(Disconnected):
        Graph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_distance_matrices_are_capped():
    # C_n keeps n // 2 + 1 matrices of n^2 entries: C_200 4,040,000 entries,
    # within the cap, and C_400 would keep 32,320,000
    c200 = Graph(oracles.cycle_adjacency(200))
    assert c200.diameter == 100
    assert intersection_array(c200).b == (2,) + (1,) * 99
    with pytest.raises(OrderTooLarge) as err:
        Graph(oracles.cycle_adjacency(400))
    # raised as the 53rd matrix would take the 52 kept past the cap
    assert err.value.witness == (400, DISTANCE_ENTRIES // 400 ** 2)
    assert 52 * 400 ** 2 <= DISTANCE_ENTRIES < 53 * 400 ** 2


def test_distance_matrices_match_bfs(petersen, cube, c6):
    for g in (petersen, cube, c6):
        dist = oracles.bfs_distances(g.adjacency.tolist())
        mats = g.distance_matrices()
        for d, M in enumerate(mats):
            M = np.asarray(M)
            for u in range(g.n):
                for v in range(g.n):
                    assert (dist[u][v] == d) == bool(M[u, v])


def test_petersen_array_pinned(petersen):
    arr = intersection_array(petersen)
    assert arr.b == (3, 2) and arr.c == (1, 1)
    assert arr.diameter == 2
    assert str(arr) == "{3, 2; 1, 1}"
    assert arr.valencies == (1, 3, 6)


def test_cube_array_pinned(cube):
    arr = intersection_array(cube)
    assert arr.b == (3, 2, 1) and arr.c == (1, 2, 3)


def test_small_fixtures(c6):
    k3 = Graph(np.array(oracles.complete_bipartite_adjacency(1, 2), dtype=np.int64) * 0
               + (np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)))
    arr = intersection_array(k3)
    assert arr.b == (2,) and arr.c == (1,)
    arr = intersection_array(c6)
    assert arr.b == (2, 1, 1) and arr.c == (1, 1, 2)


def test_arrays_match_oracle(petersen, cube, c6, k44):
    for g in (petersen, cube, c6, k44):
        expect = oracles.intersection_array(g.adjacency.tolist())
        arr = intersection_array(g)
        assert expect is not None
        assert tuple(expect[0]) == arr.b and tuple(expect[1]) == arr.c


def test_star_is_not_drg():
    star = Graph(np.array(oracles.complete_bipartite_adjacency(1, 3), dtype=np.int64))
    chk = check_distance_regular(star)
    assert not chk.ok and chk.witness is not None
    out = intersection_array(star)
    assert not out
    assert out.witness is not None
    with pytest.raises(NotDistanceRegular):
        scheme_from_drg(star)
    # the oracle agrees the counts are not constant
    assert oracles.intersection_array(star.adjacency.tolist()) is None


def test_scheme_from_drg_is_distance_partition(petersen):
    sch = scheme_from_drg(petersen)
    assert sch.classes == 2
    dist = oracles.bfs_distances(petersen.adjacency.tolist())
    for d in range(3):
        M = np.asarray(sch.mats[d])
        for u in range(10):
            for v in range(10):
                assert bool(M[u, v]) == (dist[u][v] == d)


def test_permutation_group_validation():
    with pytest.raises(Exception):
        PermutationGroup(3, [(0, 0, 1)])


def test_orbit_partition_trivial(c6):
    ident = PermutationGroup(6, [tuple(range(6))])
    part = orbit_partition(ident, c6)
    assert part.cells == tuple((i,) for i in range(6))


def test_orbit_partition_rotation(c6):
    rot = PermutationGroup(6, [tuple((i + 1) % 6 for i in range(6))])
    part = orbit_partition(rot, c6)
    assert part.cells == (tuple(range(6)),)


def test_orbit_partition_antipodal_pinned(c6):
    half = PermutationGroup(6, [tuple((i + 3) % 6 for i in range(6))])
    part = orbit_partition(half, c6)
    assert part.cells == ((0, 3), (1, 4), (2, 5))
    from lcdsubspace.schemes import verify_equitable

    assert verify_equitable(part, c6.distance_matrices()).ok


def test_non_automorphism_rejected(c6):
    swap = list(range(6))
    swap[0], swap[1] = 1, 0  # transposing adjacent vertices breaks C_6 edges
    with pytest.raises(NotAnAutomorphism):
        orbit_partition(PermutationGroup(6, [tuple(swap)]), c6)
