import random
from itertools import combinations

import numpy as np
import pytest

import oracles
from lcdsubspace import codes as codes_module
from lcdsubspace.codes import (
    ProjectionDecoder,
    SubspaceCode,
    _bounded_verdict,
    _verdict,
    _verdicts,
    classical_lcd_check,
    decode_naive,
    decode_naive_many,
    decode_projection,
    is_lcd_subspace_code,
    params,
    projection_decoder,
    sampled_min_distance,
)
from lcdsubspace.constructions import theorem_pipeline
from lcdsubspace.errors import (
    AmbientMismatch,
    DegenerateCode,
    DimensionMismatch,
    EmptyCode,
    EncodingOutOfRange,
    FieldMismatch,
    InvalidSpec,
    NotLCDCode,
    PairBudgetExceeded,
    RankDeficient,
)
from lcdsubspace.gf import padded_stack
from lcdsubspace.simulator import ChannelSpec, corrupt
from lcdsubspace.subspaces import Subspace, complement_coordinates, distance, dual, intersect, span


def line(field, v):
    return span(field, len(v), [v])


def block_code(field, xs, t):
    """Row spaces of [X | I_t] for each X in xs."""
    eye = np.eye(t, dtype=np.int64)
    words = [Subspace.span(field, 2 * t, np.hstack([np.array(x), eye]).tolist())
             for x in xs]
    return SubspaceCode(words)


def test_constructor_dedups_and_orders(f3):
    a = line(f3, [1, 0])
    b = line(f3, [1, 1])
    code = SubspaceCode([b, a, span(f3, 2, [[2, 2]])])
    assert len(code) == 2
    assert set(code) == {a, b}
    assert SubspaceCode([a, b]) == SubspaceCode([b, a])
    with pytest.raises(EmptyCode):
        SubspaceCode([])


def test_block_code_pinned(f2):
    code = block_code(f2, [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])], 2)
    assert len(code) == 2
    p = params(code)
    assert p.n == 4 and p.size == 2 and p.dims == (2,) and p.constant_dimension


def test_params_pinned(f3):
    code = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1])])
    p = params(code)
    assert (p.n, p.size, p.d, p.dims, p.q) == (2, 2, 2, (1,), 3)
    assert p.constant_dimension


def test_params_degenerate_and_budget(f3):
    one = SubspaceCode([line(f3, [1, 0])])
    with pytest.raises(DegenerateCode):
        params(one)
    assert params(one, allow_degenerate=True).d is None
    three = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1]), line(f3, [0, 1])])
    with pytest.raises(PairBudgetExceeded):
        params(three, pair_budget=2)
    assert params(three, pair_budget=3).d == 2


def test_sampled_distance_bounds_exact(f3):
    code = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1]), line(f3, [0, 1])])
    exact = params(code).d
    assert sampled_min_distance(code, samples=50, seed=1) >= exact
    assert sampled_min_distance(code, samples=2000, seed=1) == exact


# --- the bounded minimum-distance scan ---


def _pair_distances(code):
    """d(C_i, C_j) of every pair i < j, each from subspaces.distance."""
    return {(i, j): distance(code[i], code[j])
            for i, j in combinations(range(len(code)), 2)}


def _scan_asks(code, pairs):
    """(C_i, C_j, cap) of each excess rank the bounded scan over pairs must
    ask for, replayed on exact distances: every pair at the cap where its
    e = rank [C_i; C_j] - dim C_i could still beat the least distance so
    far, none where that cap is not positive."""
    asks, best = [], None
    for i, j in pairs:
        U, W = code[i], code[j]
        cap = W.dim + 1 if best is None else (best - U.dim + W.dim + 1) // 2
        if cap > 0:
            asks.append((U, W, cap))
            d = distance(U, W)
            best = d if best is None else min(best, d)
    return asks


def _scan_codes(f, rng):
    """Seeded codes for the minimum-distance scan: two-word codes, codes of
    mixed dimensions, crowded codes with tied pairs, and codes whose only
    closest pair is the last one scanned, (s - 2, s - 1)."""
    def word(n, k):
        return Subspace(f, n, rng.integers(0, f.q, (k, n)))

    codes = []
    for n in (4, 7, 12):
        codes += [SubspaceCode([word(n, k), word(n, k2)])
                  for k, k2 in ((1, 1), (2, 3), (n // 2, n // 2), (0, n))]
        codes += [SubspaceCode([word(n, int(rng.integers(0, n + 1))) for _ in range(6)])
                  for _ in range(3)]
        codes.append(SubspaceCode([word(n, 2) for _ in range(12)]))
    # a far code plus one word near its last word, until that pair is last
    # in the canonical order and alone at the minimum
    found = 0
    while found < 4:
        n, k = 10, int(rng.integers(2, 5))
        words = [word(n, k) for _ in range(4)]
        near = np.vstack([words[-1].basis[:k - 1], rng.integers(0, f.q, (1, n))])
        code = SubspaceCode(words + [Subspace(f, n, near)])
        dists = _pair_distances(code)
        best = min(dists.values())
        if [p for p, d in dists.items() if d == best] == [(len(code) - 2, len(code) - 1)]:
            codes.append(code)
            found += 1
    return codes


def test_min_distance_scan_matches_every_pair(f2, f3, f4, f9, excess_rank_asks):
    # params must visit every pair, each at its cap, and its capped ranks
    # must still give the least distance: with mixed dimensions the caps
    # differ from pair to pair, and a closest pair found last or tied must
    # be exact
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(83)
        shapes = set()
        for code in _scan_codes(f, rng):
            dists = _pair_distances(code)
            best = min(dists.values())
            want = _scan_asks(code, combinations(range(len(code)), 2))
            excess_rank_asks.clear()
            assert params(code).d == best
            assert excess_rank_asks == want
            ties = sum(d == best for d in dists.values())
            shapes |= {("two words", len(code) == 2), ("mixed", len(code.dims) > 1),
                       ("tied", ties > 1),
                       ("last", ties == 1 and dists[len(code) - 2, len(code) - 1] == best)}
        assert {("two words", True), ("mixed", True), ("tied", True), ("last", True)} <= shapes


def test_sampled_min_distance_is_the_least_over_its_pairs(f2, f3, f4, f9, excess_rank_asks,
                                                         monkeypatch):
    scans = []
    scan = codes_module._min_distance

    def spy(code, pairs):
        scans.append(list(pairs))
        return scan(code, scans[-1])

    monkeypatch.setattr(codes_module, "_min_distance", spy)
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(89)
        for code in _scan_codes(f, rng)[::3]:
            for samples, seed in ((1, 0), (7, 3), (40, 5)):
                scans.clear()
                excess_rank_asks.clear()
                got = sampled_min_distance(code, samples=samples, seed=seed)
                asks = list(excess_rank_asks)
                [pairs] = scans
                assert len(pairs) == samples
                assert all(i != j for i, j in pairs)
                assert asks == _scan_asks(code, pairs)
                assert got == min(distance(code[i], code[j]) for i, j in pairs)
        # no pair, or fewer, bounds nothing
        for samples in (0, -1):
            with pytest.raises(InvalidSpec):
                sampled_min_distance(code, samples=samples)


def test_lcd_code_membership_pinned(f3):
    good = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1])])
    assert bool(is_lcd_subspace_code(good))
    # <(0,1)> is the dual of <(1,0)>, so the cross intersection is nonzero
    bad = SubspaceCode([line(f3, [1, 0]), line(f3, [0, 1])])
    assert not is_lcd_subspace_code(bad)


def test_lcd_code_matches_direct_intersections(f2, f3, f4):
    rng = random.Random(12)
    for f in (f2, f3, f4):
        for _ in range(20):
            n = rng.randrange(1, 5)
            words = []
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(0, n + 1)
                rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
                words.append(Subspace.span(f, n, rows))
            code = SubspaceCode(words)
            expect = all(
                intersect(u, dual(w)).dim == 0 for u in code for w in code)
            assert bool(is_lcd_subspace_code(code)) == expect


def _first_meeting_pair(code):
    """The lowest (i, j) with C_i n C_j^perp != 0, from one stacked rank per
    ordered pair, or None."""
    f = code.field
    for i, ci in enumerate(code):
        for j, cj in enumerate(code):
            dj = cj.dual()
            if f.rank(np.vstack([ci.basis, dj.basis])) != ci.dim + dj.dim:
                return (i, j)
    return None


def test_lcd_witness_matches_direct_stacked_ranks(f2, f3, f9):
    # codewords <[I_k | Y]> with sparse random Y: most of these codes are not
    # LCD, at pairs past (0, 0) too; GF(2) also at the widths 64 and 65
    rng = np.random.default_rng(23)
    witnesses = set()
    for f, n in ((f2, 5), (f2, 9), (f2, 64), (f2, 65), (f3, 5), (f3, 9), (f9, 5), (f9, 9)):
        for _ in range(8):
            words = []
            for _ in range(int(rng.integers(2, 6))):
                k = int(rng.integers(1, n))
                Y = rng.integers(0, f.q, (k, n - k)) * (rng.random((k, n - k)) < 0.3)
                words.append(Subspace(f, n, np.hstack([np.eye(k, dtype=np.int64), Y])))
            code = SubspaceCode(words)
            want = _first_meeting_pair(code)
            check = is_lcd_subspace_code(code)
            assert (check.ok, check.witness) == (want is None, want)
            witnesses.add(want)
    # the seeded codes reach witnesses other than the first pair
    assert len(witnesses - {None, (0, 0)}) >= 4


def test_lcd_check_takes_one_rank_per_unordered_pair(f2, f3, f9, excess_rank_asks):
    # an LCD code of s codewords: s(s + 1)/2 ranks [C_a; C_b^perp], the
    # pairs a <= b in lexicographic order, each once
    rng = np.random.default_rng(41)
    for f, n, k, s in ((f2, 12, 4, 6), (f3, 12, 4, 4), (f9, 10, 3, 3)):
        code = _isotropic_lcd_code(f, n, k, s, rng)
        assert len(code) == s
        excess_rank_asks.clear()
        assert is_lcd_subspace_code(code)
        assert excess_rank_asks == [(code[a], code[b].dual(), None)
                                    for a in range(s) for b in range(a, s)]


def test_lcd_check_failing_at_the_first_pair_takes_one_rank_and_one_dual(
        f2, f3, f9, excess_rank_asks):
    # C_0 is a self-orthogonal line, so (0, 0) fails: one rank [C_0; C_0^perp]
    # and C_0^perp alone are taken, on every field.  Over GF(9) = F_3[x] /
    # (x^2 + 1), x is encoded as 3 and 1 + x^2 = 0
    e = np.eye(3, dtype=np.int64)
    for f, v in ((f2, [1, 1, 0]), (f3, [1, 1, 1]), (f9, [1, 3, 0])):
        assert f.matmul(np.array([v]), np.array([v]).T).tolist() == [[0]]
        code = SubspaceCode([line(f, v), span(f, 3, e[[0, 2]]), span(f, 3, e[1:])])
        assert code[0] == line(f, v)
        excess_rank_asks.clear()
        check = is_lcd_subspace_code(code)
        assert (check.ok, check.witness) == (False, (0, 0))
        assert excess_rank_asks == [(code[0], code[0].dual(), None)]
        assert [w._dual is not None for w in code] == [True, False, False]


def test_lcd_witness_at_a_mirror_pair(f2, f3, excess_rank_asks):
    # dim(C_j n C_i^perp) >= dim C_j - dim C_i, so with codewords of unequal
    # dimension (ordered by dimension) the first violating pair is (j, i),
    # j > i, while (i, j) is clean: the witness is read off the rank taken
    # for (i, j)
    cases = (
        (f2, 3, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]]),
        (f2, 3, [[[1, 0, 0]], [[1, 1, 1]], [[1, 0, 0], [0, 1, 0]]]),
        (f2, 5, [[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], [[1, 0, 1, 1, 0], [0, 1, 1, 0, 0]],
                 [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]]),
        (f3, 4, [[[1, 1, 0, 0]], [[1, 0, 1, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]]]),
        (f3, 4, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 1, 0], [0, 1, 0, 1]],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]),
    )
    for f, n, words in cases:
        code = SubspaceCode([span(f, n, rows) for rows in words])
        assert len(code) == len(words)
        want = _first_meeting_pair(code)
        j, i = want
        assert j > i and intersect(code[i], dual(code[j])).dim == 0
        excess_rank_asks.clear()
        check = is_lcd_subspace_code(code)
        assert (check.ok, check.witness) == (False, want)
        upper = [(a, b) for a in range(len(code)) for b in range(a, len(code))]
        # no rank is taken for the witness itself, nor past it
        assert excess_rank_asks == [(code[a], code[b].dual(), None)
                                    for a, b in upper if (a, b) < want]


def test_decode_pinned_failures(f3):
    tied = SubspaceCode([line(f3, [1, 0]), line(f3, [0, 1])])
    out = decode_naive(tied, line(f3, [1, 1]))
    assert out.status == "failure" and out.index is None and out.distance == 2
    code = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1])])
    out = decode_naive(code, Subspace.full(f3, 2))
    assert out.status == "failure" and out.distance == 1


def test_decode_unique_winner(f3):
    code = SubspaceCode([line(f3, [1, 0]), line(f3, [1, 1])])
    for i, w in enumerate(code):
        out = decode_naive(code, w)
        assert out.status == "decoded" and out.index == i and out.distance == 0
        assert decode_projection(code, w) == out


def test_projection_requires_lcd(f3):
    bad = SubspaceCode([line(f3, [1, 0]), line(f3, [0, 1])])
    with pytest.raises(NotLCDCode):
        decode_projection(bad, line(f3, [1, 1]))
    with pytest.raises(NotLCDCode):
        ProjectionDecoder(bad)


def test_decoders_agree_randomized(f2, f3, f4):
    rng = random.Random(77)
    checked = 0
    for f in (f2, f3, f4):
        while checked < 40:
            n = rng.randrange(2, 5)
            words = []
            for _ in range(rng.randrange(2, 4)):
                k = rng.randrange(1, n)
                rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
                words.append(Subspace.span(f, n, rows))
            code = SubspaceCode(words)
            if not is_lcd_subspace_code(code):
                continue
            checked += 1
            dec = ProjectionDecoder(code)
            for _ in range(5):
                k = rng.randrange(0, n + 1)
                rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
                R = Subspace.span(f, n, rows)
                a = decode_naive(code, R)
                b = dec.decode(R)
                assert a == b
                assert b == decode_projection(code, R)
                # the reported distance is the true minimum either way
                assert a.distance == min(distance(R, w) for w in code)
        checked = 0


def _isotropic_lcd_code(f, n, k, size, rng):
    """size codewords <[I_k | Y_i H]> of F_q^n, columns shuffled alike.
    H's rows, the all-ones vectors on p consecutive coordinates
    (e_2t + e_2t+1 over GF(2)), are orthogonal to each other and, as p = 0
    in F_q, to themselves, so every Gram block G_i G_j^T is I_k and the
    code is LCD."""
    m = (n - k) // f.p
    H = np.zeros((m, n - k), dtype=np.int64)
    for j in range(f.p):
        H[np.arange(m), f.p * np.arange(m) + j] = 1
    perm = rng.permutation(n)
    eye = np.eye(k, dtype=np.int64)
    gens = [np.hstack([eye, f.matmul(rng.integers(0, f.q, (k, m)), H)])[:, perm]
            for _ in range(size)]
    return SubspaceCode([Subspace(f, n, G) for G in gens])


@pytest.mark.parametrize("n, k", [(9, 3), (64, 20), (65, 30), (130, 40)])
def test_decoders_agree_across_byte_and_word_boundaries(f2, n, k):
    # raw rows reach the packed product with duplicates and dependent rows,
    # which it reduces to an echelon set of its own
    rng = np.random.default_rng(n)
    code = _isotropic_lcd_code(f2, n, k, 4, rng)
    assert len(code) == 4 and is_lcd_subspace_code(code)
    dec = ProjectionDecoder(code)
    for t in range(24):
        basis = code[t % 4].basis
        kind = t // 4 % 3
        if kind == 0:       # one erasure, one row repeated
            rows = np.vstack([basis[1:], basis[1:2]])
        elif kind == 1:     # one error vector, rows mixed
            mix = rng.integers(0, 2, (k + 1, k + 1))
            rows = mix @ np.vstack([basis, rng.integers(0, 2, (1, n))]) % 2
        else:               # any rows at all, some zero or repeated
            rows = rng.integers(0, 2, (int(rng.integers(0, n + 2)), n))
            rows = np.vstack([rows, rows[:2], np.zeros((1, n), dtype=np.int64)])
        out = dec.decode(rows)
        assert out == decode_naive(code, rows)
        assert out == dec.decode(Subspace(f2, n, rows))
        R = Subspace(f2, n, rows)
        assert out.distance == min(distance(R, w) for w in code)
        if kind == 0:
            assert (out.status, out.index) == ("decoded", t % 4)


def test_decoders_reject_received_words_that_do_not_fit(f2, f3):
    # raw rows reach the projection decoder's packed product unconverted,
    # so both decoders check them first
    for f, other in ((f2, f3), (f3, f2)):
        code = SubspaceCode([line(f, [1, 0, 0]), line(f, [1, 1, 0] if f.q == 3 else [1, 1, 1])])
        dec = ProjectionDecoder(code)
        bad = [([[0, 1, -1]], EncodingOutOfRange), ([[0, 1, f.q]], EncodingOutOfRange),
               ([[0, 1]], AmbientMismatch), (Subspace.full(f, 4), AmbientMismatch),
               (Subspace.full(other, 3), FieldMismatch)]
        for received, error in bad:
            for decode in (dec.decode, lambda R: decode_naive(code, R),
                           lambda R: decode_naive_many(code, [R]),
                           lambda R: dec.decode_many([R])):
                with pytest.raises(error):
                    decode(received)


def test_subspace_and_its_raw_rows_decode_alike(f3, f9):
    # a Subspace's basis is independent, the raw rows here are not: both
    # reach the block ranks as rows of one stack and must give one verdict
    rng = np.random.default_rng(39)
    for f in (f3, f9):
        n = 6
        code = None
        while code is None or not is_lcd_subspace_code(code):
            code = SubspaceCode([Subspace(f, n, rng.integers(0, f.q, (int(rng.integers(1, 4)), n)))
                                 for _ in range(3)])
        dec = ProjectionDecoder(code)
        for t in range(30):
            rows = rng.integers(0, f.q, (int(rng.integers(0, n + 1)), n))
            if t % 3 == 0:
                rows = np.vstack([code[t % len(code)].basis, rows[:1]])
            R = Subspace(f, n, rows)
            # the generators shuffled, one repeated: dependent, unlike R's basis
            raw = np.vstack([rows, rows[:1]])[rng.permutation(len(rows) + min(len(rows), 1))]
            out = dec.decode(R)
            assert out == dec.decode(raw) == decode_naive(code, R)
            assert out.distance == min(distance(R, w) for w in code)


def test_many_word_decoders_match_one_word_decoders(f2, f3, f9):
    # decode_naive_many ranks stacks [C_i; R_t] padded to one height, and
    # decode_many ranks the blocks of one stacked product: each verdict must
    # be decode_naive's, word by word, whatever the mix of word shapes
    rng = np.random.default_rng(41)
    for f in (f2, f3, f9):
        n = 6
        code = None
        while code is None or not is_lcd_subspace_code(code):
            code = SubspaceCode([Subspace(f, n, rng.integers(0, f.q, (int(rng.integers(1, 4)), n)))
                                 for _ in range(3)])
        dec = ProjectionDecoder(code)
        words = [Subspace.zero(f, n), np.zeros((0, n), dtype=np.int64),
                 np.zeros((2, n), dtype=np.int64), Subspace.full(f, n)]
        for t in range(12):
            rows = rng.integers(0, f.q, (int(rng.integers(1, n + 2)), n))
            if t % 3 == 0:
                rows = np.vstack([code[t % len(code)].basis, rows[:1], rows[:1]])
            words.append(Subspace(f, n, rows) if t % 2 else rows)
        want = [decode_naive(code, w) for w in words]
        assert decode_naive_many(code, words) == want
        assert dec.decode_many(words) == want
        assert decode_naive_many(code, []) == dec.decode_many([]) == []


def test_gf2_naive_verdicts_match_oracle_distances(f2):
    # each distance by the xor-basis oracle, the verdict by its definition;
    # decode_naive and decode_naive_many read the codewords' echelon tables,
    # which the first call builds and later calls reuse, so each decoder
    # runs twice on raw rows and on Subspaces
    rng = np.random.default_rng(1503)
    n = 70
    code = _mixed_code(f2, n, (3, 3, 5, 8, 13, 21), rng)
    assert [w.dim for w in code] == [3, 3, 5, 8, 13, 21]

    def oracle_verdict(rows):
        def rank(mats):
            return oracles.gf2_rank([row for M in mats for row in np.asarray(M).tolist()])
        dists = [2 * rank([w.basis, rows]) - w.dim - rank([rows]) for w in code]
        best = min(dists)
        if dists.count(best) == 1:
            return ("decoded", dists.index(best), best)
        return ("failure", None, best)

    words = [np.zeros((0, n), dtype=np.int64), np.eye(n, dtype=np.int64)]
    for t in range(24):
        w = code[t % len(code)]
        rows = rng.integers(0, 2, (int(rng.integers(1, 6)), n))
        if t % 3 == 0:
            rows = np.vstack([w.basis[1:], rows[:1]])
        elif t % 3 == 1:
            rows = np.vstack([w.basis, rows[:1], rows[:1]])
        words.append(rows)
    want = [oracle_verdict(rows) for rows in words]
    # the two dimension-3 codewords tie on the zero word
    assert want[0][0] == "failure"
    assert {v[0] for v in want} == {"decoded", "failure"}
    spaces = [Subspace(f2, n, rows) for rows in words]
    for received in (words, spaces, words, spaces):
        got = [decode_naive(code, R) for R in received]
        assert [(o.status, o.index, o.distance) for o in got] == want
        got = decode_naive_many(code, received)
        assert [(o.status, o.index, o.distance) for o in got] == want
    assert all(w._echelon is not None for w in code)


def test_projection_on_zero_width_and_full_width_blocks(f2, f9):
    # {F_q^n} has a zero-width block of complement coordinates, {0} a
    # full-width one; d(F_q^n, R) = n - dim R and d(0, R) = dim R
    n = 3
    for f in (f2, f9):
        other = [1, 1, 1] if f.q == 2 else [1, 1, 0]
        received = [Subspace.zero(f, n), np.zeros((0, n), dtype=np.int64),
                    line(f, [0, 1, 1]), Subspace.full(f, n)]
        for code, dist in ((SubspaceCode([Subspace.full(f, n)]), lambda k: n - k),
                           (SubspaceCode([Subspace.zero(f, n)]), lambda k: k)):
            dec = ProjectionDecoder(code)
            assert dec.coordinates.shape == (n, n - code[0].dim)
            for R in received:
                out = dec.decode(R)
                k = R.dim if isinstance(R, Subspace) else 0
                assert out == decode_naive(code, R)
                assert (out.status, out.index, out.distance) == ("decoded", 0, dist(k))
        lines = SubspaceCode([line(f, [1, 0, 0]), line(f, other)])
        assert is_lcd_subspace_code(lines)
        out = ProjectionDecoder(lines).decode(Subspace.zero(f, n))
        assert out == decode_naive(lines, Subspace.zero(f, n))
        assert (out.status, out.distance) == ("failure", 1)


def test_classical_lcd_pinned(f2, f3):
    assert not classical_lcd_check(f2, [[1, 1]])
    assert classical_lcd_check(f3, [[1, 1]])
    with pytest.raises(RankDeficient):
        classical_lcd_check(f3, [[1, 1], [2, 2]])


def test_classical_lcd_matches_intersection(all_fields):
    rng = random.Random(5)
    for f in all_fields:
        done = 0
        while done < 25:
            k = rng.randrange(1, 4)
            n = rng.randrange(k, 7)
            G = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
            if oracles.rank(f, G) != k:
                continue
            done += 1
            U = Subspace.span(f, n, G)
            expect = intersect(U, dual(U)).dim == 0
            assert bool(classical_lcd_check(f, G)) == expect


def test_classical_check_is_the_gram_determinant(f3):
    G = [[1, 1]]
    gram_det = f3.det(f3.matmul(f3.asmatrix(G), f3.asmatrix(G).T))
    assert classical_lcd_check(f3, G) == (gram_det != 0)
    assert gram_det == 2


# --- bounded verdicts, on GF(2) and on fields that cap exact ranks ---


def test_bounded_verdict_with_and_without_exact_ranks():
    # the stacked branch reads exact ranks of a whole batch in one pass
    # (_verdicts); the capped loop of _bounded_verdict, which the lazy
    # GF(2) scans take, must give the same verdict from the same ranks,
    # asked only through the cap
    rng = random.Random(79)
    for _ in range(300):
        s = rng.randrange(1, 8)
        dims = [rng.randrange(0, 10) for _ in range(s)]
        batch, want = [], []
        for _ in range(10):
            dim = rng.randrange(0, 10)
            # rank [C_i; R] lies between max(dim C_i, dim R) and dim C_i + dim R
            e = [rng.randrange(max(0, dim - k), dim + 1) for k in dims]
            want.append(_verdict([k + 2 * x - dim for k, x in zip(dims, e)]))
            assert _bounded_verdict(dim, dims, lambda i, cap: min(e[i], cap)) == want[-1]
            batch.append((dim, e))
        dim = np.array([d for d, _ in batch], dtype=np.int64)
        E = np.array([e for _, e in batch], dtype=np.int64)
        # (index, distance) arrays, index -1 for a tie, as _verdict gives them
        index, dist = _verdicts(dims, dim, E)
        assert index.dtype == dist.dtype == np.int64
        assert list(zip(index.tolist(), dist.tolist())) == want
    index, dist = _verdicts([1, 2], np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
    assert index.shape == dist.shape == (0,)


def _asked(dim, dims, e):
    """(verdict, caps asked) of _bounded_verdict on the exact ranks e, the
    caps as (block, cap) in the order asked."""
    asks = []

    def rank(i, cap):
        asks.append((i, cap))
        return min(e[i], cap)

    return _bounded_verdict(dim, dims, rank), asks


def test_bounded_verdict_asks_each_cap_once_per_round():
    # equal dimensions, as in every LCD code: every block is asked at 2, 4,
    # 8, ... up to the first round with a block below its cap, and no more
    rounds = lambda s, caps: [(i, cap) for cap in caps for i in range(s)]
    for dim, dims, e, verdict, caps in [
            (5, [5] * 4, [7, 3, 9, 3], (-1, 6), [2, 4]),
            (4, [4] * 3, [0, 0, 1], (-1, 0), [2]),
            (6, [6] * 3, [20, 17, 30], (1, 34), [2, 4, 8, 16, 32]),
            (3, [3] * 2, [2, 2], (-1, 4), [2, 4]),
            (10, [8] * 5, [4, 5, 4, 6, 9], (-1, 6), [2, 4, 8])]:
        assert _asked(dim, dims, e) == (verdict, rounds(len(dims), caps))
    # dimensions far apart: block i's cap is (min(dims) + 2t - 1 - dims[i]) // 2
    # + 1 in round t = 2, 4, 8, ..., and a block is not asked while its cap is
    # not positive.  Here the 30-dimensional block's cap is -12, -10, -6,
    # then 2 at t = 16
    assert _asked(2, [2, 30], [5, 0]) == ((0, 10), [(0, 2), (0, 4), (0, 8)])
    assert _asked(2, [2, 30], [40, 0]) == (
        (1, 28), [(0, 2), (0, 4), (0, 8), (0, 16), (1, 2)])
    assert _asked(2, [2, 30, 32], [40, 0, 0]) == (
        (1, 28), [(0, 2), (0, 4), (0, 8), (0, 16), (1, 2), (2, 1)])


def _batched_verdicts_match_naive(code, words):
    """Both batched decoders, and decode(), give decode_naive's verdict on
    every word; returns the verdicts.  A code that is not LCD (a code of
    mixed dimensions never is) has no projection decoder."""
    want = [decode_naive(code, w) for w in words]
    assert decode_naive_many(code, words) == want
    if is_lcd_subspace_code(code):
        dec = ProjectionDecoder(code)
        assert dec.decode_many(words) == want
        assert [dec.decode(w) for w in words] == want
    return want


def _mixed_code(f, n, dims, rng):
    """A seeded code of random codewords of the given distinct dimensions."""
    words = []
    for k in dims:
        w = Subspace(f, n, rng.integers(0, f.q, (k, n)))
        while w.dim != k:
            w = Subspace(f, n, rng.integers(0, f.q, (k, n)))
        words.append(w)
    return SubspaceCode(words)


def _tied(code, R):
    """How many codewords are at the minimum distance from R."""
    dists = [distance(w, R) for w in code]
    return dists.count(min(dists))


def test_bounded_verdicts_keep_ties(f2, f3, f4, f9):
    # a constant-dimension code with many codewords in a small space, so
    # that many words are at the minimum distance from two or more
    # codewords: the bounded scans must finish every tied block exactly
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(61)
        code = _isotropic_lcd_code(f, 12, 4, 8, rng)
        assert len(code) == 8 and is_lcd_subspace_code(code)
        words = []
        for t in range(60):
            k = int(rng.integers(0, 9))
            rows = rng.integers(0, f.q, (k, 12))
            if t % 3 == 0:
                # part of one codeword plus part of another
                rows = np.vstack([code[t % 8].basis[:2], code[(t + 1) % 8].basis[2:], rows[:1]])
            words.append(Subspace(f, 12, rows) if t % 2 else rows)
        out = _batched_verdicts_match_naive(code, words)
        ties = [_tied(code, w if isinstance(w, Subspace) else Subspace(f, 12, w)) for w in words]
        assert sum(o.status == "failure" for o in out) >= 10
        assert all((o.status == "failure") == (k > 1) for o, k in zip(out, ties))
        assert max(ties) >= 3


def test_bounded_verdicts_on_mixed_dimensions(f2, f3, f4, f9):
    # the cap of block i depends on dim C_i, and with mixed dimensions the
    # distances of two codewords can differ in parity; such a code is never
    # LCD, so only decode_naive_many takes it
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(67)
        statuses = set()
        for n, dims in ((6, (1, 2, 3, 4)), (9, (1, 3, 4, 6, 8)), (16, (2, 5, 7, 11, 13))):
            code = _mixed_code(f, n, dims, rng)
            words = [rng.integers(0, f.q, (int(rng.integers(0, n + 2)), n)) for _ in range(30)]
            words += [np.vstack([w.basis[:w.dim - 1], rng.integers(0, f.q, (1, n))])
                      for w in code]
            words += [w.basis for w in code]
            out = _batched_verdicts_match_naive(code, words)
            statuses |= {o.status for o in out}
            # every codeword wins some word: each dimension's cap is exercised
            assert {o.index for o in out} >= set(range(len(code)))
        assert statuses == {"decoded", "failure"}


def test_bounded_verdicts_on_the_zero_and_the_full_space(f2, f3, f4, f9):
    # dim R = 0: d = dim C_i; R = F_q^n: d = n - dim C_i
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(71)
        for code in (_mixed_code(f, 7, (1, 2, 4, 6), rng),
                     _isotropic_lcd_code(f, 12, 4, 6, rng)):
            n = code.n
            words = [Subspace.zero(f, n), np.zeros((0, n), dtype=np.int64),
                     np.zeros((3, n), dtype=np.int64), Subspace.full(f, n),
                     np.eye(n, dtype=np.int64), np.vstack([np.eye(n, dtype=np.int64)] * 2)]
            out = _batched_verdicts_match_naive(code, words)
            small, large = min(code.dims), max(code.dims)
            assert all(o.distance == small for o in out[:3])
            assert all(o.distance == n - large for o in out[3:])


def test_bounded_verdicts_far_from_every_codeword(f2, f3, f4, f9):
    # random words of dimension 40 in F_q^130 are far from every codeword of
    # dimension 40, so every e_i is large and the loop raises its cap from 2
    # to at least 16 before any block comes in below it
    for f in (f2, f3, f4, f9):
        rng = np.random.default_rng(73)
        code = _isotropic_lcd_code(f, 130, 40, 4, rng)
        words = [rng.integers(0, f.q, (40, 130)) for _ in range(4)]
        out = _batched_verdicts_match_naive(code, words)
        for o, w in zip(out, words):
            e = (o.distance - 40 + Subspace(f, 130, w).dim) // 2
            assert e >= 8


@pytest.mark.parametrize("erasures, errors", [(3, 2), (0, 3)])
def test_bounded_verdicts_beyond_the_unique_radius_of_thm59(thm59_report, erasures, errors):
    # the (192, 31, 4; 96) code decodes one erasure or one error uniquely;
    # these words are past that radius, where ties and near misses happen
    code = thm59_report.code
    spec = ChannelSpec(erasures, errors, rng_seed=97)
    rng = np.random.default_rng(97)
    words = []
    for t in range(6):
        R = corrupt(code[int(rng.integers(0, len(code)))], spec, t)
        # raw rows, shuffled with one repeated, reach the echelon reductions
        words.append(R if t % 2 else np.vstack([R.basis, R.basis[:1]])[rng.permutation(R.dim + 1)])
    want = [decode_naive(code, w) for w in words]
    assert decode_naive_many(code, words) == want
    assert projection_decoder(code).decode_many(words) == want
    # the nearest codeword is past the unique decoding radius of 1
    assert all(o.distance > 1 for o in want)


@pytest.mark.parametrize("n", [8, 10])
def test_gf2_decoders_either_side_of_the_stacked_boundary(f2, n):
    # n = 8 takes the stacked branch (exact ranks of the whole batch, one
    # verdict pass), n = 10 the lazy packed scans: both must give
    # decode_naive's verdict on every word, ties, the zero space, the whole
    # space and an empty batch included
    assert f2.stacked(n) == (n == 8)
    rng = np.random.default_rng(83 + n)
    k = n // 2 - 1
    code = _isotropic_lcd_code(f2, n, k, 6, rng)
    assert len(code) >= 5 and is_lcd_subspace_code(code)
    words = [Subspace.zero(f2, n), np.zeros((0, n), dtype=np.int64), Subspace.full(f2, n),
             np.vstack([np.eye(n, dtype=np.int64)] * 2)]
    for t in range(60):
        rows = rng.integers(0, 2, (int(rng.integers(0, n + 2)), n))
        if t % 3 == 0:
            # part of one codeword plus part of another
            i = t % len(code)
            rows = np.vstack([code[i].basis[:2], code[i - 1].basis[2:], rows[:1]])
        words.append(Subspace(f2, n, rows) if t % 2 else rows)
    out = _batched_verdicts_match_naive(code, words)
    assert [o.distance for o in out[:4]] == [k, k, n - k, n - k]
    assert {o.status for o in out} == {"decoded", "failure"}
    assert decode_naive_many(code, []) == ProjectionDecoder(code).decode_many([]) == []
    # codewords of mixed dimensions: naive decoding only
    mixed = _mixed_code(f2, n, (1, 3, 4, n - 2), rng)
    words = [rng.integers(0, 2, (int(rng.integers(0, n + 2)), n)) for _ in range(40)]
    words += [w.basis for w in mixed] + [Subspace.zero(f2, n), Subspace.full(f2, n)]
    out = _batched_verdicts_match_naive(mixed, words)
    assert {o.index for o in out} >= set(range(len(mixed)))
    assert {o.status for o in out} == {"decoded", "failure"}


@pytest.mark.parametrize("n", [8, 10])
def test_gf2_lazy_and_exact_ranks_agree_on_one_code(f2, n):
    # the decoders read one branch per code, but both forms stay callable
    # on it: the lazy capped scans, asked at any cap, give the least of
    # the exact ranks and the cap.  Only a factor of at most 8 rows keeps B
    # for exact block ranks; every GF(2) factor tells the nonzero blocks
    rng = np.random.default_rng(89 + n)
    code = _isotropic_lcd_code(f2, n, n // 2 - 1, 4, rng)
    rows = [rng.integers(0, 2, (k, n)) for k in (0, 1, 3, n, n + 2)]
    stack = padded_stack(rows)
    dims, E = f2.excess_ranks(code.codewords, stack)
    want_dims = [oracles.rank(f2, A.tolist()) for A in rows]
    want = [[oracles.rank(f2, np.vstack([w.basis, A]).tolist()) - w.dim for w in code]
            for A in rows]
    assert (dims.tolist(), E.tolist()) == (want_dims, want)
    dec = ProjectionDecoder(code)
    factor = dec._factor
    widths = [n - w.dim for w in code]
    product = f2.matmul(np.vstack(rows), dec.coordinates)
    blocks, at = [], 0
    for A in rows:
        P, at = product[at:at + len(A)], at + len(A)
        spans = np.cumsum([0] + widths)
        blocks.append([oracles.rank(f2, P[:, s:e].tolist()) for s, e in zip(spans, spans[1:])])
    for (dim, rank), (dim2, rank2), e, b in zip(
            f2.capped_stack_ranks(code.codewords, stack), factor.capped(stack), want, blocks):
        assert dim == dim2
        for cap in (1, 2, 1, 4, n + 1, 0):
            assert [rank(i, cap) for i in range(len(code))] == [min(x, cap) for x in e]
            assert [rank2(i, cap) for i in range(len(code))] == [min(x, cap) for x in b]
    for A, b in zip(rows, blocks):
        assert factor.nonzero_blocks(A).tolist() == [x > 0 for x in b]
    if f2.stacked(n):
        dims, R = factor.block_ranks(stack)
        assert (dims.tolist(), R.tolist()) == (want_dims, blocks)
    else:
        with pytest.raises(DimensionMismatch):
            factor.block_ranks(stack)


def test_syndrome_control_matches_naive_decoding_on_codes_not_lcd(f2, f3, f4, f9):
    # codewords of mixed dimension, so most codes are not LCD: the syndrome
    # control needs no LCD check, and decodes as the unbounded reference does
    rng = np.random.default_rng(61)
    not_lcd = 0
    for f in (f2, f3, f4, f9):
        for _ in range(12):
            n = int(rng.integers(2, 6))
            words = []
            while len(words) < 3:
                W = Subspace(f, n, rng.integers(0, f.q, (int(rng.integers(1, n)), n)))
                if W.dim and W not in words:
                    words.append(W)
            code = SubspaceCode(words)
            not_lcd += not is_lcd_subspace_code(code)
            for _ in range(4):
                rows = rng.integers(0, f.q, (int(rng.integers(0, n + 1)), n))
                want = decode_naive(code, rows)
                got = oracles.syndrome_decode(code, rows)
                assert got == (want.status, want.index, want.distance)
    assert not_lcd >= 40


def test_projection_coordinates_span_the_syndrome_columns(f2, f4, f5, f9, thm59_report,
                                                         order4_pair):
    # Q_i = W_i^T G_i^-1: rank [Q_i | W_i^T] = n - dim C_i on every codeword
    # of the codes whose tallies or documents are pinned, and the projection
    # decoder is the syndrome control on them
    codes = [thm59_report.code,
             *(theorem_pipeline("thm51", p=2, r=r, matrices=list(order4_pair.matrices)).code
               for r in (2, 3)),
             SubspaceCode([span(f2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
                           span(f2, 4, [[1, 1, 1, 0], [0, 0, 0, 1]]),
                           span(f2, 4, [[1, 1, 0, 1], [0, 0, 1, 0]])]),
             SubspaceCode([line(f5, [1, 1]), line(f5, [1, 0])]),
             SubspaceCode([span(f4, 4, [[1, 0, 2, 0], [0, 1, 0, 3]]),
                           span(f4, 4, [[1, 0, 0, 0], [0, 1, 1, 1]])]),
             SubspaceCode([span(f9, 5, [[1, 0, 2, 6, 7], [0, 1, 6, 5, 8]]),
                           span(f9, 5, [[1, 0, 7, 4, 5], [0, 1, 3, 2, 6]]),
                           span(f9, 5, [[1, 2, 3, 0, 5], [0, 0, 0, 1, 7]])])]
    rng = np.random.default_rng(67)
    for code in codes:
        f, n = code.field, code.n
        for w in code:
            Q, W = complement_coordinates(w)
            assert f.rank(np.hstack([Q, W.T])) == n - w.dim == f.rank(Q)
        if n < 10:
            for _ in range(20):
                rows = rng.integers(0, f.q, (int(rng.integers(0, n + 1)), n))
                want = decode_projection(code, rows)
                got = oracles.syndrome_decode(code, rows)
                assert got == (want.status, want.index, want.distance)
