"""Acceptance checklist.

One test per numbered criterion.  Each test is self-contained, uses fixed
seeds, enforces the stated tolerance (exact unless noted) and asserts its
wall-clock budget where one is stated.  Criteria that depend on data we
cannot redistribute skip with a reason when ./external is absent.
"""
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from lcdsubspace.codes import (SubspaceCode, classical_lcd_check,
                               decode_naive, decode_projection,
                               is_lcd_subspace_code)
from lcdsubspace.constructions import algebra_closure, build_block, theorem_pipeline
from lcdsubspace.drg import (Graph, PermutationGroup, check_distance_regular,
                             intersection_array, scheme_from_drg)
from lcdsubspace.errors import HypothesisFailed
from lcdsubspace.gf import field_new
from lcdsubspace.hadamard import (UnbiasedSet, are_unbiased, gramian_B,
                                  search_unbiased_extension, sylvester)
from lcdsubspace.schemes import (EquitablePartition, divisibility_screen,
                                 quotient_matrices, verify_quotient_algebra)
from lcdsubspace.simulator import ChannelSpec, corrupt, run_experiment
from lcdsubspace.subspaces import (Subspace, distance, intersect, is_lcd,
                                   pairwise_lcd, projector_complement, span)
from lcdsubspace import fileio

import oracles

EXTERNAL = Path(__file__).resolve().parent.parent / "external"


def _random_subspace(field, rng, n, max_dim=None):
    k = int(rng.integers(1, (max_dim or n) + 1))
    return Subspace(field, n, rng.integers(0, field.q, size=(k, n)))


def _random_full_rank(field, rng, n, k):
    M = rng.integers(0, field.q, size=(k, n))
    R, piv = field.rref(M)
    if not piv:
        return None
    G = R[: len(piv)]
    while True:
        S = rng.integers(0, field.q, size=(len(piv), len(piv)))
        if field.det(S) != 0:
            return field.matmul(S, G)


# --- criterion 1 ---


def test_criterion_01_field_and_linear_algebra_suite(all_fields):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for f in all_fields:
        p, q = f.p, f.q
        a = rng.integers(0, q, size=1000)
        b = rng.integers(0, q, size=1000)
        c = rng.integers(0, q, size=1000)
        assert (f.add(f.add(a, b), c) == f.add(a, f.add(b, c))).all()
        assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
        assert (f.add(a, b) == f.add(b, a)).all()
        assert (f.mul(a, b) == f.mul(b, a)).all()
        assert (f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))).all()
        assert (f.add(a, f.neg(a)) == 0).all()
        assert (f.sub(a, b) == f.add(a, f.neg(b))).all()
        assert (f.add(a, 0) == a).all() and (f.mul(a, 1) == a).all()
        # Frobenius: x -> x^p is additive
        powp = a
        for _ in range(p - 1):
            powp = f.mul(powp, a)
        powp_b = b
        for _ in range(p - 1):
            powp_b = f.mul(powp_b, b)
        s = f.add(a, b)
        powp_s = s
        for _ in range(p - 1):
            powp_s = f.mul(powp_s, s)
        assert (powp_s == f.add(powp, powp_b)).all()
        for v in a[a != 0][:1000]:
            assert f.mul(int(v), f.inv(int(v))) == 1
        for case in range(1000):
            M = rng.integers(0, q, size=(3, 4))
            R, piv = f.rref(M)
            R2, piv2 = f.rref(R)
            assert (R2 == R).all() and piv2 == piv
            assert f.rank(M) == len(piv)
            A = rng.integers(0, q, size=(3, 3))
            B = rng.integers(0, q, size=(3, 3))
            assert f.det(f.matmul(A, B)) == f.mul(f.det(A), f.det(B))
            assert f.det(A.T.copy()) == f.det(A)
        # spot cross-check against the reference elimination
        for case in range(50):
            M = rng.integers(0, q, size=(3, 4))
            R, piv = f.rref(M)
            oR, opiv = oracles.rref(f, M.tolist())
            assert R.tolist() == oR and piv == tuple(opiv)
    assert time.monotonic() - t0 < 30.0


# --- criterion 2 ---


def test_criterion_02_determinant_test_matches_direct_intersection(all_fields):
    rng = np.random.default_rng(202)
    disagreements = 0
    for f in all_fields:
        done = 0
        while done < 1000:
            n = int(rng.integers(1, 13))
            G = _random_full_rank(f, rng, n, int(rng.integers(1, n + 1)))
            if G is None:
                continue
            verdict = classical_lcd_check(f, G)
            U = Subspace(f, n, G)
            direct = intersect(U, U.dual()).dim == 0
            if verdict != direct:
                disagreements += 1
            done += 1
    assert disagreements == 0


# --- criterion 3 ---


def test_criterion_03_projection_distance_identity(all_fields):
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for f in all_fields:
        done = 0
        attempts = 0
        while done < 1000:
            attempts += 1
            assert attempts < 100000
            n = int(rng.integers(2, 9))
            U = _random_subspace(f, rng, n)
            if U.dim == 0 or not is_lcd(U):
                continue
            C = _random_subspace(f, rng, n)
            P = projector_complement(U)
            dim_meet = C.dim - f.rank(f.matmul(C.basis, P))
            assert U.dim + C.dim - 2 * dim_meet == distance(U, C)
            done += 1
    assert time.monotonic() - t0 < 60.0


# --- criterion 4 ---


def _random_lcd_code(field, rng):
    while True:
        n = int(rng.integers(3, 6))
        words = []
        target = int(rng.integers(2, 5))
        for _ in range(4 * target):
            W = _random_subspace(field, rng, n, max_dim=n - 1)
            if W.dim and W not in words:
                words.append(W)
            if len(words) == target:
                break
        if len(words) < 2:
            continue
        code = SubspaceCode(words)
        if is_lcd_subspace_code(code):
            return code, n


def test_criterion_04_decoders_agree_everywhere():
    rng = np.random.default_rng(404)
    fields = [field_new(2), field_new(3), field_new(2, 2)]
    disagreements = 0
    for i in range(1000):
        f = fields[i % len(fields)]
        code, n = _random_lcd_code(f, rng)
        R = _random_subspace(f, rng, n)
        a = decode_naive(code, R)
        b = decode_projection(code, R)
        if (a.status, a.index, a.distance) != (b.status, b.index, b.distance):
            disagreements += 1
    assert disagreements == 0
    # engineered ties: equidistant received words must fail on both decoders
    for f, tie_rows in ((field_new(5), [[1, 3]]), (field_new(3), [[1, 2]])):
        code = SubspaceCode([span(f, 2, [[1, 1]]), span(f, 2, [[1, 0]])])
        assert bool(is_lcd_subspace_code(code))
        for rows, want_d in ((tie_rows, 2), ([[1, 0], [0, 1]], 1)):
            a = decode_naive(code, rows)
            b = decode_projection(code, rows)
            assert a == b
            assert a.status == "failure" and a.index is None
            assert a.distance == want_d


# --- criterion 5 ---


def _distance_partition(adj):
    dist = oracles.bfs_distances(adj)[0]
    cells = {}
    for v, d in enumerate(dist):
        cells.setdefault(d, []).append(v)
    return EquitablePartition([cells[d] for d in sorted(cells)], len(adj))


def test_criterion_05_scheme_and_quotient_identities(petersen, cube, c4, k44):
    t0 = time.monotonic()
    ia = intersection_array(petersen)
    assert (tuple(ia.b), tuple(ia.c)) == ((3, 2), (1, 1))
    ia = intersection_array(cube)
    assert (tuple(ia.b), tuple(ia.c)) == ((3, 2, 1), (1, 2, 3))
    for graph in (petersen, cube, c4, k44):
        adj = graph.adjacency.tolist()
        want = oracles.intersection_array(adj)
        ia = intersection_array(graph)
        assert (list(ia.b), list(ia.c)) == (list(want[0]), list(want[1]))
        scheme = scheme_from_drg(graph)
        mats = [M.astype(np.int64) for M in scheme.mats]
        oracle_tensor = oracles.intersection_tensor([M.tolist() for M in mats])
        assert oracle_tensor is not None
        d = scheme.classes
        for i in range(d + 1):
            for j in range(d + 1):
                lhs = mats[i] @ mats[j]
                rhs = sum(oracle_tensor[i][j][k] * mats[k] for k in range(d + 1))
                assert (lhs == rhs).all()
                assert list(scheme.tensor[i, j, :]) == oracle_tensor[i][j]
        n = scheme.size
        partitions = [EquitablePartition.singletons(n),
                      EquitablePartition([range(n)], n),
                      _distance_partition(adj)]
        for part in partitions:
            qs = quotient_matrices(part, scheme)
            H = part.char_matrix
            for A, M in zip(mats, qs.quotients):
                assert (A @ H == H @ M).all()
            assert verify_quotient_algebra(scheme, qs).ok
    assert time.monotonic() - t0 < 60.0


# --- criterion 6 ---


def _k222_adjacency():
    A = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)
    for i in range(0, 6, 2):
        A[i, i + 1] = A[i + 1, i] = 0
    return A


def _check_construction_report(rep, field, S, scheme):
    t = rep.t
    assert rep.params.n == 2 * t
    assert rep.params.dims == (t,)
    assert rep.lcd_verified and rep.identity_all_pairs
    assert bool(is_lcd_subspace_code(rep.code))
    # rebuild the generator blocks from scratch and recheck the product rule
    gens = [scheme.mats[i].astype(np.int64) % field.p for i in S]
    basis = algebra_closure(field, gens)
    blocks = []
    for coeffs in itertools.product(range(field.q), repeat=basis.dim):
        if not any(coeffs):
            continue
        X = np.zeros_like(basis.basis[0])
        for cf, B in zip(coeffs, basis.basis):
            X = field.add(X, field.mul(cf, B))
        if X.any():
            blocks.append(build_block(field, X, 1))
    assert len(blocks) ** 2 == rep.identity_pairs_checked
    eye = np.eye(t, dtype=np.int64)
    for N in blocks:
        for M in blocks:
            assert (field.matmul(N, M.T.copy()) == eye).all()


def test_criterion_06_screened_constructions_emit_valid_codes(c4_scheme,
                                                              k44_scheme, c4):
    fixtures = [(c4_scheme, 2), (k44_scheme, 2),
                (scheme_from_drg(Graph(_k222_adjacency())), 2),
                (scheme_from_drg(Graph(np.array(
                    oracles.complete_bipartite_adjacency(3, 3),
                    dtype=np.int64))), 3),
                (scheme_from_drg(Graph(np.array(
                    oracles.cycle_adjacency(8), dtype=np.int64))), 2)]
    reports = 0
    for scheme, p in fixtures:
        sets = divisibility_screen(scheme, p)
        assert sets, f"screen came back empty for p={p}"
        for S in sets:
            for r in (1, 2):
                field = field_new(p, r)
                part = EquitablePartition.singletons(scheme.size)
                rep = theorem_pipeline("thm43", p=p, r=r, scheme=scheme,
                                       partition=part, indices=S)
                _check_construction_report(rep, field, S, scheme)
                reports += 1
    # same screen, reached through the automorphism-orbit route
    grp = PermutationGroup(4, [(0, 1, 2, 3)])
    rep = theorem_pipeline("cor45", p=2, graph=c4, group=grp, indices=(1,))
    _check_construction_report(rep, field_new(2), (1,), c4_scheme)
    reports += 1
    assert reports == 11


# --- criterion 7 ---


def test_criterion_07_order_4_search_maximality_and_code(f2):
    t0 = time.monotonic()
    seed = UnbiasedSet([sylvester(2)])
    first = search_unbiased_extension(seed, use_bound=False)
    assert first.found is not None and len(first.found) == 2
    A, B = list(first.found)
    assert are_unbiased(A, B).ok
    second = search_unbiased_extension(first.found, use_bound=False)
    assert second.found is None and second.proven_exhausted
    rep = theorem_pipeline("thm51", p=2, matrices=list(first.found))
    pr = rep.params
    assert (pr.n, pr.size, pr.dims, pr.q) == (8, 1, (4,), 2)
    assert rep.lcd_verified
    assert bool(is_lcd_subspace_code(rep.code))
    word = next(iter(rep.code))
    assert word.field is f2 and word.n == 8
    assert time.monotonic() - t0 < 120.0


# --- criterion 8 ---

MURH_TABLE_N2_M2 = {
    (1, 1): [20, 7, 5, 12],
    (2, 2): [12, 3, 1, 4],
    (1, 2): [0, 3, 5, 8],
    (1, 3): [0, 9, 10, 0],
    (2, 3): [0, 6, 5, 0],
}


def _counted_products_match(scheme):
    mats = [M.astype(np.int64) for M in scheme.mats]
    d = scheme.classes
    for i in range(d + 1):
        for j in range(d + 1):
            P = mats[i] @ mats[j]
            recon = np.zeros_like(P)
            for k in range(d + 1):
                vals = np.unique(P[mats[k] == 1])
                assert vals.size == 1, (i, j, k)
                assert int(vals[0]) == int(scheme.tensor[i, j, k])
                recon += int(vals[0]) * mats[k]
            assert (P == recon).all()


def test_criterion_08_order_16_identities_and_code(bush_uset,
                                                   bush_pair_schemes,
                                                   thm59_report):
    B1, B2, B3 = gramian_B(bush_uset)
    mats = [np.eye(48, dtype=np.int64), B1.astype(np.int64),
            B2.astype(np.int64), B3.astype(np.int64)]
    for (i, j), coeffs in MURH_TABLE_N2_M2.items():
        lhs = mats[i] @ mats[j]
        rhs = sum(c * M for c, M in zip(coeffs, mats))
        assert (lhs == rhs).all(), (i, j)

    five = bush_pair_schemes.five_class
    eight = bush_pair_schemes.eight_class
    assert (five.size, five.classes) == (48, 5)
    assert (eight.size, eight.classes) == (96, 8)
    _counted_products_match(five)
    _counted_products_match(eight)
    A = [M.astype(np.int64) for M in five.mats]
    assert (A[1] @ A[1] == 3 * A[0] + 2 * A[1]).all()
    T = [M.astype(np.int64) for M in eight.mats]
    assert (T[4] @ T[5] == 8 * T[2] + 4 * T[5] + 8 * T[8]).all()

    pr = thm59_report.params
    assert (pr.n, pr.size, pr.d, pr.dims, pr.q) == (192, 31, 4, (96,), 2)
    assert thm59_report.lcd_verified
    assert all(ok for _, ok in thm59_report.hypotheses)
    words = list(thm59_report.code)
    rng = np.random.default_rng(808)
    for _ in range(40):
        i, j = rng.integers(0, len(words), size=2)
        assert pairwise_lcd(words[int(i)], words[int(j)]).ok


def test_criterion_08_order_16_code_decodes_distance_one_words(thm59_report):
    # one erasure or one error is within the unique decoding radius of d = 4
    code = thm59_report.code
    rng = np.random.default_rng(859)
    for t in range(16):
        sent = int(rng.integers(0, len(code)))
        spec = ChannelSpec(t % 2, 1 - t % 2, rng_seed=859)
        R = corrupt(code[sent], spec, t)
        a = decode_naive(code, R)
        b = decode_projection(code, R)
        assert a == b
        assert (b.status, b.index, b.distance) == ("decoded", sent, 1)


# --- criterion 9 ---


def _sweep_cor45(graph_path, group_path, p):
    graph = fileio.read_graph(graph_path)
    group = fileio.read_group(group_path)
    diam = check_distance_regular(graph).diameter
    seen = set()
    for size in (1, 2):
        for S in itertools.combinations(range(1, diam + 1), size):
            try:
                rep = theorem_pipeline("cor45", p=p, graph=graph, group=group,
                                       indices=S)
            except HypothesisFailed:
                continue
            pr = rep.params
            assert rep.lcd_verified
            seen.add((pr.n, pr.size, pr.d, pr.dims[0], pr.q))
    return seen


def test_criterion_09_published_parameter_reproduction():
    ran = 0
    cor45_cases = [
        ("dhs.graph", "dhs_a.group", (20, 16, 2, 10, 2)),
        ("dhs.graph", "dhs_b.group", (40, 5, 2, 20, 2)),
        ("dm22.graph", "dm22.group", (22, 4, 2, 11, 2)),
    ]
    for graph_name, group_name, want in cor45_cases:
        gp, hp = EXTERNAL / graph_name, EXTERNAL / group_name
        if not (gp.is_file() and hp.is_file()):
            continue
        assert want in _sweep_cor45(gp, hp, 2)
        ran += 1

    wpaths = [EXTERNAL / f"w16_{i}.txt" for i in range(1, 5)]
    if all(p.is_file() for p in wpaths):
        from lcdsubspace.hadamard import WeighingMatrix

        mats = [WeighingMatrix(fileio.read_matrix(p).matrix) for p in wpaths]
        seen = set()
        for size in (2, 3, 4):
            for subset in itertools.combinations(mats, size):
                for zero_x in (False, True):
                    try:
                        rep = theorem_pipeline("thm52", p=3,
                                               matrices=list(subset),
                                               weight=9,
                                               include_zero_x=zero_x)
                    except HypothesisFailed:
                        continue
                    pr = rep.params
                    assert rep.lcd_verified
                    seen.add((pr.n, pr.size, pr.d, pr.dims[0], pr.q))
        for want in ((32, 81, 6, 16, 3), (32, 27, 8, 16, 3),
                     (32, 27, 6, 16, 3)):
            assert want in seen
        ran += 1

    if ran == 0:
        pytest.skip("external data sets not present under ./external "
                    "(see README for the expected file layout)")


# --- criterion 10 ---


def test_criterion_10_simulator_determinism_and_correctness(f2, f5):
    t0 = time.monotonic()
    code = SubspaceCode([
        span(f2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
        span(f2, 4, [[1, 1, 1, 0], [0, 0, 0, 1]]),
        span(f2, 4, [[1, 1, 0, 1], [0, 0, 1, 0]]),
    ])
    assert bool(is_lcd_subspace_code(code))

    def outcome(stats):
        d = stats.as_dict()
        d.pop("naive_seconds")
        d.pop("projection_seconds")
        return d

    noisy = ChannelSpec(1, 1, rng_seed=1010)
    a = run_experiment(code, noisy, 10 ** 4)
    b = run_experiment(code, noisy, 10 ** 4)
    assert outcome(a) == outcome(b)
    assert a.agreement == a.trials == 10 ** 4

    clean = run_experiment(code, ChannelSpec(0, 0, rng_seed=1), 10 ** 4)
    assert clean.correct == clean.trials == 10 ** 4
    assert clean.failure == clean.wrong == 0
    assert clean.mean_distance == 0.0
    assert clean.agreement == clean.trials

    code5 = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    x = run_experiment(code5, ChannelSpec(0, 1, rng_seed=42), 2000)
    y = run_experiment(code5, ChannelSpec(0, 1, rng_seed=42), 2000)
    assert outcome(x) == outcome(y)
    assert x.agreement == 2000
    assert time.monotonic() - t0 < 120.0
