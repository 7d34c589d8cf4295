"""Distance-regular graphs, intersection arrays, automorphism orbit partitions.

A connected graph is distance-regular when the common-neighbour counts that
would form an association scheme's tensor only depend on the three distances
involved.  We compute distance classes by frontier expansion, test regularity
of the products A_dist * A against each class support, and read the
intersection array off the tensor slices b_i = p^i_{i+1,1}, c_i = p^i_{i-1,1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    InternalInconsistency,
    NotAnAutomorphism,
    NotAPartition,
    NotDistanceRegular,
    NotSymmetric,
)
from .linalg import as_int_matrix, as_integer, int_matmul
from .schemes import AssociationScheme, EquitablePartition, scheme_from_matrices, verify_equitable


class Graph:
    """Simple undirected connected graph held as a 0/1 adjacency matrix."""

    __slots__ = ("adjacency", "n", "_dist_mats")

    def __init__(self, adjacency):
        A = as_int_matrix(adjacency)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"adjacency must be square, got {A.shape}")
        if not ((A == 0) | (A == 1)).all():
            raise NotAPartition("adjacency entries must be 0 or 1")
        if not (A == A.T).all():
            raise NotSymmetric("adjacency must be symmetric")
        if np.diagonal(A).any():
            raise NotAPartition("adjacency must have zero diagonal")
        A = A.copy()
        A.setflags(write=False)
        self.adjacency = A
        self.n = A.shape[0]
        self._dist_mats = _distance_matrices(A)

    @property
    def diameter(self):
        return len(self._dist_mats) - 1

    def distance_matrices(self):
        return self._dist_mats

    def __repr__(self):
        return f"Graph(n={self.n}, diameter={self.diameter})"


def _distance_matrices(A):
    """[A_0, ..., A_diam] by repeated frontier expansion; exact 0/1 int64."""
    n = A.shape[0]
    ident = np.eye(n, dtype=np.int64)
    mats = [ident]
    reached = ident.astype(bool)
    frontier = ident
    while True:
        grown = (int_matmul(frontier, A) > 0) & ~reached
        if not grown.any():
            break
        nxt = grown.astype(np.int64)
        mats.append(nxt)
        reached |= grown
        frontier = nxt
    if not reached.all():
        u, v = np.argwhere(~reached)[0]
        raise Disconnected(f"no path between vertices {u} and {v}",
                           witness=(int(u), int(v)))
    for M in mats:
        M.setflags(write=False)
    return tuple(mats)


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0, ..., b_{d-1}; c_1, ..., c_d} with the derived valencies k_i."""

    b: tuple
    c: tuple
    valencies: tuple

    @property
    def diameter(self):
        return len(self.c)

    def __str__(self):
        bs = ", ".join(str(v) for v in self.b)
        cs = ", ".join(str(v) for v in self.c)
        return "{" + bs + "; " + cs + "}"


@dataclass(frozen=True)
class DrgCheck:
    ok: bool
    array: IntersectionArray | None
    witness: dict | None

    def __bool__(self):
        return self.ok


def check_distance_regular(graph):
    """Test distance-regularity; on success carries the intersection array.

    The witness on failure names the distance pair whose neighbour count is
    not constant, with two positions achieving different counts.
    """
    mats = graph.distance_matrices()
    A = graph.adjacency
    d = len(mats) - 1
    supports = [M == 1 for M in mats]
    counts = np.zeros((d + 1, d + 1), dtype=np.int64)
    for ell in range(d + 1):
        P = int_matmul(mats[ell], A)
        for k in range(d + 1):
            vals = P[supports[k]]
            if vals.size == 0:
                continue
            v0 = int(vals[0])
            if not (vals == v0).all():
                pos = np.argwhere(supports[k])
                bad = pos[np.flatnonzero(vals != v0)[0]]
                first = pos[0]
                return DrgCheck(False, None, {
                    "from_distance": ell, "at_distance": k,
                    "pair_a": tuple(int(x) for x in first), "count_a": v0,
                    "pair_b": tuple(int(x) for x in bad),
                    "count_b": int(P[bad[0], bad[1]]),
                })
            counts[ell, k] = v0

    b = tuple(int(counts[i + 1, i]) for i in range(d))
    c = tuple(int(counts[i - 1, i]) for i in range(1, d + 1))
    valencies = [1]
    for i in range(d):
        num = valencies[-1] * b[i]
        if num % c[i]:
            raise InternalInconsistency(
                f"valency recursion k_{i} b_{i} / c_{i + 1} is not integral")
        valencies.append(num // c[i])
    row_sums = [np.unique(M.sum(axis=1)) for M in mats]
    for i, sums in enumerate(row_sums):
        if sums.size != 1 or int(sums[0]) != valencies[i]:
            raise InternalInconsistency(
                f"class {i} row sums {sums.tolist()} disagree with valency {valencies[i]}")
    return DrgCheck(True, IntersectionArray(b, c, tuple(valencies)), None)


def intersection_array(graph):
    """IntersectionArray on success, a falsy DrgCheck with witness otherwise."""
    check = check_distance_regular(graph)
    if not check.ok:
        return check
    return check.array


def scheme_from_drg(graph):
    """Distance classes of a distance-regular graph as a metric scheme."""
    check = check_distance_regular(graph)
    if not check.ok:
        raise NotDistanceRegular("graph is not distance-regular",
                                 witness=check.witness)
    scheme = scheme_from_matrices(graph.distance_matrices())
    d = scheme.classes
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                if (k > i + j or k < abs(i - j)) and scheme.tensor[i, j, k]:
                    raise InternalInconsistency(
                        f"metric scheme has p_{i}{j}^{k} != 0 outside the triangle range")
    return scheme


class PermutationGroup:
    """Generators of a permutation group on {0..degree-1}, given as image tuples."""

    __slots__ = ("degree", "generators")

    def __init__(self, degree, generators):
        degree = as_integer(degree, "degree")
        gens = []
        for gi, g in enumerate(generators):
            g = tuple(as_integer(v, "image") for v in g)
            if sorted(g) != list(range(degree)):
                raise NotAPartition(
                    f"generator {gi} is not a permutation of 0..{degree - 1}",
                    witness=gi)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, generators={len(self.generators)})"


def orbit_partition(group, graph):
    """Vertex orbits of an automorphism group, as an equitable partition.

    Each generator is verified to preserve adjacency before orbits are built;
    the orbit partition is then checked equitable against every distance
    matrix, which must hold for genuine automorphisms.
    """
    if group.degree != graph.n:
        raise DimensionMismatch(
            f"group degree {group.degree} vs graph on {graph.n} vertices")
    A = graph.adjacency
    for gi, g in enumerate(group.generators):
        gi_arr = np.array(g, dtype=np.int64)
        moved = A[np.ix_(gi_arr, gi_arr)]
        if not (moved == A).all():
            u, v = np.argwhere(moved != A)[0]
            raise NotAnAutomorphism(
                f"generator {gi} maps the pair ({u},{v}) across the edge relation",
                witness=(gi, (int(u), int(v))))

    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in group.generators:
        for u, v in enumerate(g):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups = {}
    for u in range(graph.n):
        groups.setdefault(find(u), []).append(u)
    cells = sorted(groups.values(), key=lambda c: c[0])
    partition = EquitablePartition(cells, graph.n)
    check = verify_equitable(partition, graph.distance_matrices())
    if not check.ok:
        raise InternalInconsistency(
            "orbit partition of verified automorphisms is not equitable",
            witness=check.witness)
    return partition
