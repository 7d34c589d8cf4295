import statistics

import numpy as np
import oracles
import pytest

from lcdsubspace import simulator
from lcdsubspace.codes import (
    SubspaceCode,
    decode_naive,
    decode_projection,
    is_lcd_subspace_code,
    projection_decoder,
)
from lcdsubspace.errors import InternalInconsistency, InvalidSpec, NotLCDCode
from lcdsubspace.gf import field_new
from lcdsubspace.simulator import ChannelSpec, TrialStats, corrupt, run_experiment
from lcdsubspace.subspaces import Subspace, distance, span


@pytest.fixture()
def word_f2(f2):
    return Subspace.span(f2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])


@pytest.fixture()
def code_f5(f5):
    return SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])


def test_channel_spec_validation():
    with pytest.raises(InvalidSpec):
        ChannelSpec(-1, 0)
    with pytest.raises(InvalidSpec):
        ChannelSpec(0, -2)
    spec = ChannelSpec(1, 2, 9)
    assert (spec.erasure_count, spec.error_count, spec.rng_seed) == (1, 2, 9)
    for seed in (-1, -2 ** 64, True, False, 1.0, "3", None, np.int64(3)):
        with pytest.raises(InvalidSpec, match="rng_seed"):
            ChannelSpec(0, 0, seed)
    assert ChannelSpec(0, 0, 2 ** 100 + 7).rng_seed == 2 ** 100 + 7
    # counts are integers, as seeds are, but numpy integers stay accepted
    for count in (1.5, True, False, 2.0, "1", None):
        with pytest.raises(InvalidSpec, match="erasure_count"):
            ChannelSpec(count, 0)
        with pytest.raises(InvalidSpec, match="error_count"):
            ChannelSpec(0, count)
    spec = ChannelSpec(np.int64(1), np.int32(2), 9)
    assert (spec.erasure_count, spec.error_count) == (1, 2)


def test_noiseless_channel_returns_codeword(word_f2):
    out = corrupt(word_f2, ChannelSpec(0, 0, 7), 0)
    assert out == word_f2


def test_full_erasure_gives_zero(word_f2, f2):
    out = corrupt(word_f2, ChannelSpec(2, 0, 7), 3)
    assert out == Subspace.zero(f2, 4)


def test_erasure_only_shrinks_inside(word_f2):
    for t in range(10):
        out = corrupt(word_f2, ChannelSpec(1, 0, 11), t)
        assert out.dim == 1
        for row in out.basis.tolist():
            assert word_f2.contains(row)


def test_corrupt_validation(word_f2):
    with pytest.raises(InvalidSpec):
        corrupt(word_f2, ChannelSpec(3, 0), 0)  # erasures exceed dim 2
    with pytest.raises(InvalidSpec):
        corrupt(word_f2, ChannelSpec(0, 5), 0)  # errors exceed ambient 4
    for t in (-1, -2 ** 32, 1.5, 2.0, True, False, None):
        with pytest.raises(InvalidSpec, match="trial_index"):
            corrupt(word_f2, ChannelSpec(0, 1), t)
    spec = ChannelSpec(1, 1, 3)
    assert corrupt(word_f2, spec, np.int64(2)) == corrupt(word_f2, spec, 2)
    # a negative entropy word would wrap silently in a uint32 array
    for seed, tail in ((-1, ()), (3, (-1,))):
        with pytest.raises(InvalidSpec, match="non-negative"):
            simulator._states(seed, 0, 1, (tail,))


def test_corrupt_frozen_fixtures(word_f2):
    spec = ChannelSpec(0, 1, 42)
    assert corrupt(word_f2, spec, 0) == word_f2  # error row fell inside the span
    out = corrupt(word_f2, spec, 2)
    assert out.basis.tolist() == [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    out = corrupt(word_f2, ChannelSpec(1, 0, 42), 0)
    assert out.basis.tolist() == [[0, 1, 0, 1]]


def test_corrupt_deterministic_per_trial(word_f2):
    spec = ChannelSpec(1, 1, 5)
    for t in (0, 1, 17):
        a = corrupt(word_f2, spec, t)
        b = corrupt(word_f2, spec, t)
        assert a == b


def test_trial_stats_consistency_enforced():
    from lcdsubspace.errors import InternalInconsistency

    with pytest.raises(InternalInconsistency):
        TrialStats(10, 5, 4, 2, 10, 0.0, 0.0, 0.0)  # 5 + 4 + 2 != 10
    st = TrialStats(10, 5, 4, 1, 10, 0.5, 0.1, 0.1)
    d = st.as_dict()
    assert d["trials"] == 10 and d["correct"] == 5


def test_run_experiment_validation(code_f5, f3):
    with pytest.raises(InvalidSpec):
        run_experiment(code_f5, ChannelSpec(0, 0), 0)
    bad = SubspaceCode([span(f3, 2, [[1, 0]]), span(f3, 2, [[0, 1]])])
    with pytest.raises(NotLCDCode):
        run_experiment(bad, ChannelSpec(0, 0), 5)
    with pytest.raises(InvalidSpec):
        run_experiment(code_f5, ChannelSpec(4, 0), 5)  # erasures exceed min dim
    with pytest.raises(InvalidSpec):
        run_experiment(code_f5, ChannelSpec(0, 3), 5)  # errors exceed ambient
    for trials in (2.5, 3.0, True, False, "3", None, -1):
        with pytest.raises(InvalidSpec, match="trials"):
            run_experiment(code_f5, ChannelSpec(0, 1), trials)
    tallies = lambda st: (st.trials, st.correct, st.failure, st.wrong, st.mean_distance)
    st = run_experiment(code_f5, ChannelSpec(0, 1, 7), np.int64(3))
    assert type(st.trials) is int
    assert tallies(st) == tallies(run_experiment(code_f5, ChannelSpec(0, 1, 7), 3))


def test_noiseless_experiment_all_correct(code_f5):
    st = run_experiment(code_f5, ChannelSpec(0, 0, 3), 400)
    assert st.correct == 400 and st.failure == 0 and st.wrong == 0
    assert st.agreement == 400
    assert st.mean_distance == 0.0


def test_experiment_deterministic(code_f5):
    a = run_experiment(code_f5, ChannelSpec(0, 1, 7), 200)
    b = run_experiment(code_f5, ChannelSpec(0, 1, 7), 200)
    outcome = lambda s: (s.trials, s.correct, s.failure, s.wrong,
                         s.agreement, s.mean_distance)
    assert outcome(a) == outcome(b)


def test_experiment_frozen_regression(code_f5):
    st = run_experiment(code_f5, ChannelSpec(0, 1, 7), 300)
    assert (st.trials, st.correct, st.failure, st.wrong) == (300, 66, 234, 0)
    assert st.agreement == 300
    assert st.mean_distance == pytest.approx(0.78)


def test_experiment_matches_manual_replay(code_f5):
    spec = ChannelSpec(0, 1, 13)
    trials = 150
    st = run_experiment(code_f5, spec, trials)
    correct = failure = wrong = 0
    dsum = 0
    for i in range(trials):
        pick = np.random.default_rng((spec.rng_seed, i, 0))
        sent = int(pick.integers(0, len(code_f5)))
        received = corrupt(code_f5[sent], spec, i)
        # classify against the full distance table
        dists = [distance(received, w) for w in code_f5]
        best = min(dists)
        dsum += best
        if dists.count(best) > 1:
            failure += 1
        elif dists.index(best) == sent:
            correct += 1
        else:
            wrong += 1
        out = decode_naive(code_f5, received)
        assert out.distance == best
    assert (st.correct, st.failure, st.wrong) == (correct, failure, wrong)
    assert st.mean_distance == pytest.approx(dsum / trials)


def test_erasures_and_errors_combined(f4):
    words = [span(f4, 4, [[1, 0, 2, 0], [0, 1, 0, 3]]),
             span(f4, 4, [[1, 0, 0, 0], [0, 1, 1, 1]])]
    code = SubspaceCode(words)
    from lcdsubspace.codes import is_lcd_subspace_code

    assert bool(is_lcd_subspace_code(code))
    st = run_experiment(code, ChannelSpec(1, 1, 21), 250)
    assert st.trials == 250
    assert st.correct + st.failure + st.wrong == 250
    assert st.agreement == 250
    assert st.naive_seconds >= 0.0 and st.projection_seconds >= 0.0


_SEEDS = (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 100 + 7)
_TRIALS = (0, 1, 199, 2 ** 32 - 1, 2 ** 32)
_TAILS = ((), (0,))


def test_streams_are_default_rng_streams():
    # entropy of 2 to 7 words, those past 4 through the extra mixing loop,
    # seeded as a chunk's are: every tail and trial index of a run at once,
    # one _seed_states pass per length, the runs below crossing 2^32
    assert {len(simulator._entropy_words((s, i, *tail)))
            for s in _SEEDS for i in _TRIALS for tail in _TAILS} == {2, 3, 4, 5, 6, 7}
    for s in _SEEDS:
        for start, m in ((0, 3), (199, 1), (2 ** 32 - 2, 4)):
            pcg = simulator._pcg(simulator._states(s, start, m, _TAILS))
            first, after = simulator._raw(pcg, 3, 1)
            # outputs past the first window, from where it ended
            pcg[0][0], pcg[1][0] = after
            more, _ = simulator._raw(pcg, 8, 0)
            for t, tail in enumerate(_TAILS):
                for j in range(m):
                    e = (s, start + j, *tail)
                    want = np.random.default_rng(e).bit_generator.random_raw(11).tolist()
                    assert first[:, t * m + j].tolist() + more[:, t * m + j].tolist() == want, e
    # one trial at a time, as corrupt seeds its stream
    for i in _TRIALS:
        pcg = simulator._pcg(simulator._states(2 ** 100 + 7, i, 1, ((),)))
        want = np.random.default_rng((2 ** 100 + 7, i)).bit_generator.random_raw(2)
        assert simulator._raw(pcg, 2, 1)[0][:, 0].tolist() == want.tolist()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 9, 2 ** 20, 2 ** 31 + 1, 3 * 2 ** 30])
def test_bounded_draws_are_generator_integers(q):
    # consecutive calls with odd counts and scalar draws: a call that ends
    # on the low half of a raw output leaves its high half to the next call,
    # so the calls draw one sequence, which _Draws reads in slices.  Its
    # first window holds 2 raw outputs a stream, so most slices are drawn
    # by later windows, each from where the last one ended
    entropies = [(s, i, *tail) for tail in _TAILS for s in _SEEDS[:4] for i in _TRIALS[:3]]
    states = np.hstack([simulator._states(s, i, 1, (tuple(tail),)) for s, i, *tail in entropies])
    draws = simulator._Draws(states, q, 2)
    rows = np.arange(len(entropies))
    gens = [np.random.default_rng(e) for e in entropies]
    at = 0
    for count in (1, 3, None, 5, 1, 7, None, 2, 9):
        got = draws.take(rows, at, count or 1)
        if count is None:
            want = [[int(g.integers(0, q))] for g in gens]
        else:
            want = [g.integers(0, q, size=count).tolist() for g in gens]
        assert got.tolist() == want
        at += count or 1
    # (2^32 - q) mod q of the 2^32 outputs are skipped: none for a power of
    # two, about 1 in 2 for 2^31 + 1 and 1 in 4 for 3 2^30
    raw, _ = simulator._raw(simulator._pcg(states), 20, 1)
    _, kept = simulator._bounded(raw, np.uint64(q))
    assert (kept.sum() < raw.size * 2) == (q > 2 ** 30)
    if q == 1:
        # numpy reads no output for q == 1, and _draw seeds no index stream
        # for a one-codeword code, whose index draws are all 0
        assert all(g.bit_generator.state == np.random.default_rng(e).bit_generator.state
                   for g, e in zip(gens, entropies))


def test_codeword_index_and_channel_share_a_stream_for_short_seeds(f5):
    # SeedSequence zero-pads entropy up to its pool of 4 words, so while
    # (rng_seed, i) takes at most 3 words, (rng_seed, i, 0) seeds the stream
    # of (rng_seed, i): the codeword index is drawn from a copy of the
    # channel's stream.  Pinned so that changing it is deliberate: it would
    # change every seeded tally
    for s in _SEEDS[:5]:
        for i in _TRIALS[:4]:
            a = np.random.default_rng((s, i, 0))
            b = np.random.default_rng((s, i))
            assert a.bit_generator.state == b.bit_generator.state
            assert _outputs(a, 4) == _outputs(b, 4)
            # the two columns _states gives them are one state
            states = simulator._states(s, i, 1, _TAILS)
            assert (states[:, 0] == states[:, 1]).all()
    s, i = 2 ** 100 + 7, 3  # five words and six: two streams
    assert (np.random.default_rng((s, i, 0)).bit_generator.state
            != np.random.default_rng((s, i)).bit_generator.state)
    states = simulator._states(s, i, 1, _TAILS)
    assert (states[:, 0] != states[:, 1]).any()
    # the index and the channel each read their stream from its first output
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    for seed in (7, s):
        spec = ChannelSpec(0, 1, seed)
        sent, rows = simulator._draw(list(code), spec, i, 1)
        assert sent.tolist() == [int(np.random.default_rng((seed, i, 0)).integers(0, 2))]
        channel = np.random.default_rng((seed, i))
        coeff = int(channel.integers(0, 5))  # nonzero here: a full-rank 1 x 1 attempt
        assert coeff and rows[0].tolist() == [(coeff * code[sent[0]].basis[0] % 5).tolist(),
                                              channel.integers(0, 5, size=2).tolist()]


def _spy_draw(monkeypatch):
    """The column count of every _seed_states pass and the number of _Draws
    built, as lists the spies fill."""
    columns, built = [], []
    seed_states, init = simulator._seed_states, simulator._Draws.__init__

    def spy_states(entropy):
        columns.append(entropy.shape[1])
        return seed_states(entropy)

    def spy_init(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(simulator, "_seed_states", spy_states)
    monkeypatch.setattr(simulator._Draws, "__init__", spy_init)
    return columns, built


def _readme_code(f2):
    return SubspaceCode([span(f2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
                         span(f2, 4, [[1, 1, 1, 0], [0, 0, 0, 1]]),
                         span(f2, 4, [[1, 1, 0, 1], [0, 0, 1, 0]])])


def _f9_words(f9):
    # an LCD subspace code has one dimension: dim C_i + dim C_j^perp > n otherwise
    return [span(f9, 5, [[1, 0, 2, 6, 7], [0, 1, 6, 5, 8]]),
            span(f9, 5, [[1, 0, 7, 4, 5], [0, 1, 3, 2, 6]]),
            span(f9, 5, [[1, 2, 3, 0, 5], [0, 0, 0, 1, 7]])]


def _f9_code(f9):
    return SubspaceCode(_f9_words(f9))


def test_short_seeds_draw_index_and_channel_in_one_pass(f2, monkeypatch):
    # while (rng_seed, i) takes at most 3 words, a chunk seeds only the
    # channel streams, one column a trial, and reads each codeword index
    # from the first output of its channel window: one _Draws.  At 2^64
    # (three words) the index streams are their own, hashed apart (five
    # words against the channel's four, so two passes) and drawn apart: two
    columns, built = _spy_draw(monkeypatch)
    words = list(_readme_code(f2))
    for seed, want_columns, want_built in ((7, [200], [2]), (2 ** 64, [200, 200], [2, 3])):
        columns.clear(), built.clear()
        simulator._draw(words, ChannelSpec(1, 1, seed), 0, 200)
        assert columns == want_columns and built == want_built


def test_codeword_indices_are_default_rng_draws_either_side_of_the_pool(f2, f9, monkeypatch):
    # (s, i) takes 3 words for s = 2^64 - 1 and i < 2^32, 4 words for
    # s = 2^64 or i >= 2^32: a chunk reads the index from the shared window
    # only if its last trial's seed fits, so the chunk from 2^32 - 3, which
    # crosses into a fourth word, seeds the index streams apart
    _, built = _spy_draw(monkeypatch)
    for code in (_readme_code(f2), _f9_code(f9)):
        words = list(code)
        for seed in (2 ** 64 - 1, 2 ** 64):
            for start in (0, 2 ** 32 - 3):
                built.clear()
                spec = ChannelSpec(1, 1, seed)
                sent, rows = simulator._draw(words, spec, start, 6)
                assert len(built) == (1 if seed < 2 ** 64 and start == 0 else 2)
                for j, i in enumerate(range(start, start + 6)):
                    assert sent[j] == np.random.default_rng((seed, i, 0)).integers(0, 3)
                    assert Subspace(code.field, code.n, rows[j]) == _one_draw(words[sent[j]], spec, i)


def test_index_without_a_draw_in_the_window_has_its_own_stream(f2, f9, monkeypatch):
    # a column whose window's first raw output keeps no index draw, both
    # halves rejected (at most (k / 2^32)^2 per trial), or that has no
    # window at all (every dimension erased and no errors) takes the index
    # from its own _Draws, over the same states; no draw changes.  The
    # bounded map below 3 rejects both halves of a raw output of 0, so a
    # channel window whose first output reads 0 once the channel has mapped
    # it keeps no index draw
    init, built = simulator._Draws.__init__, []

    def no_index_draw(self, states, q, words):
        init(self, states, q, words)
        built.append(q)
        if q != 3:
            self.window[0, 0] = 0

    for code, spec in ((_readme_code(f2), ChannelSpec(1, 1, 31)),
                       (_f9_code(f9), ChannelSpec(1, 2, 33))):
        words = list(code)
        want = [simulator._draw(words, spec, 0, m) for m in (1, 150)]
        tallies = _replay(code, spec, 150)
        monkeypatch.setattr(simulator._Draws, "__init__", no_index_draw)
        for m, (sent, rows) in zip((1, 150), want):
            built.clear()
            got = simulator._draw(words, spec, 0, m)
            assert built == [code.field.q, 3]
            assert np.array_equal(got[0], sent) and np.array_equal(got[1], rows)
        st = run_experiment(code, spec, 150)
        assert (st.correct, st.failure, st.wrong, st.mean_distance) == tallies
        monkeypatch.undo()
    sent, rows = simulator._draw(list(_readme_code(f2)), ChannelSpec(2, 0, 7), 0, 5)
    assert rows.shape == (5, 0, 4)
    assert sent.tolist() == [np.random.default_rng((7, i, 0)).integers(0, 3) for i in range(5)]


def _outputs(rng, words):
    """The 32-bit outputs of the next `words` raw words of a numpy
    Generator's PCG64, the low half of each word first."""
    raw = rng.bit_generator.random_raw(words)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist()


def _one_draw(word, spec, i):
    """The received word of trial i drawn one trial at a time, as a reference:
    coefficient matrices from the stream (rng_seed, i) until one has full
    rank, their product with the basis, then the error rows."""
    f = word.field
    rng = np.random.default_rng((spec.rng_seed, i))
    keep = word.dim - spec.erasure_count
    rows = []
    if keep > 0:
        while True:
            coeff = rng.integers(0, f.q, size=(keep, word.dim))
            if f.rank(coeff) == keep:
                break
        rows.append(f.matmul(coeff, word.basis))
    if spec.error_count > 0:
        rows.append(rng.integers(0, f.q, size=(spec.error_count, word.n)))
    return Subspace(f, word.n, np.vstack(rows) if rows else np.zeros((0, word.n)))


def _replay(code, spec, trials):
    """Tallies of a per-trial replay through corrupt, decode_naive and
    decode_projection, with the codeword drawn as run_experiment draws it."""
    correct = failure = wrong = 0
    dists = []
    for i in range(trials):
        sent = int(np.random.default_rng((spec.rng_seed, i, 0)).integers(0, len(code)))
        received = corrupt(code[sent], spec, i)
        assert received == _one_draw(code[sent], spec, i)
        a = decode_naive(code, received)
        b = decode_projection(code, received)
        assert a == b
        dists.append(a.distance)
        if a.status == "failure":
            failure += 1
        elif a.index == sent:
            correct += 1
        else:
            wrong += 1
    return correct, failure, wrong, statistics.fmean(dists)


# the prime field of order 1048367 = 2^20 - 209, near the largest supported
# order, rejects (2^32 - q) mod q = 856064 of the 2^32 outputs, about 1 in
# 5,000; seed 40766 rejects two outputs of the channel streams of trials 0
# to 149, and draws a singular first coefficient matrix for trial 7
_BIG_P, _BIG_SEED = 1048367, 40766


def _big_prime_code():
    f = field_new(_BIG_P)
    code = SubspaceCode([span(f, 4, [[1, 0, 5, 7], [0, 1, 3, 2]]),
                         span(f, 4, [[1, 0, 9, 4], [0, 1, 6, 11]])])
    assert bool(is_lcd_subspace_code(code))
    return code, ChannelSpec(0, 2, _BIG_SEED)


def test_big_prime_seed_rejects_outputs_and_retries_attempts():
    # from numpy's own streams, not from the simulator: the channel of some
    # trial reads a rejected output, and one trial's first 2 x 2
    # coefficient matrix is singular, so, as the first round ranks one
    # attempt per trial at this order, that trial takes a second round
    code, spec = _big_prime_code()
    q, skip = _BIG_P, (2 ** 32 - _BIG_P) % _BIG_P
    rejected, singular = [], []
    for i in range(150):
        channel = np.random.default_rng((spec.rng_seed, i))
        # the first attempt and the error rows read 12 draws, from the
        # first 12 outputs or more; an output is read if one after it is
        outputs = _outputs(np.random.default_rng((spec.rng_seed, i)), 6)
        rejected += [(i, j) for j, u in enumerate(outputs) if u * q % 2 ** 32 < skip]
        if oracles.rank(code.field, channel.integers(0, q, size=(2, 2)).tolist()) < 2:
            singular.append(i)
    assert rejected == [(88, 0), (109, 9)] and singular == [7]
    assert simulator._attempts(code.field, 2, 2, 150) == 1


def _chunk_codes(f2, f4, f5, f9):
    readme = _readme_code(f2)
    yield readme, ChannelSpec(1, 1, 31)
    f5_code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    yield f5_code, ChannelSpec(1, 1, 32)
    f9_words = _f9_words(f9)
    code = SubspaceCode(f9_words)
    assert bool(is_lcd_subspace_code(code))
    yield code, ChannelSpec(1, 2, 33)
    # p = 2 with r > 1: a chunk sends several distinct codewords through one
    # product, and each trial takes its own codeword's block
    f4_code = SubspaceCode([span(f4, 5, [[1, 0, 2, 0, 3], [0, 1, 2, 2, 2]]),
                            span(f4, 5, [[1, 0, 2, 3, 2], [0, 1, 1, 0, 2]]),
                            span(f4, 5, [[1, 0, 0, 3, 0], [0, 1, 2, 3, 3]])])
    assert bool(is_lcd_subspace_code(f4_code))
    yield f4_code, ChannelSpec(1, 1, 38)
    # every dimension erased, on a seed whose codeword index and channel
    # streams differ (five entropy words and four); no errors; no noise
    yield readme, ChannelSpec(2, 1, 2 ** 64 + 34)
    yield code, ChannelSpec(1, 0, 35)
    yield f5_code, ChannelSpec(0, 0, 36)
    # one codeword: the codeword index reads no output of its stream
    one = SubspaceCode(f9_words[:1])
    assert bool(is_lcd_subspace_code(one))
    yield one, ChannelSpec(1, 1, 37)
    # rejected outputs and a second round of attempts, windows drawn past
    # the first
    yield _big_prime_code()


def test_chunked_experiment_matches_per_trial_replay(f2, f4, f5, f9, monkeypatch):
    # every received word is drawn as corrupt() draws it and both decoders
    # see it, whatever the chunking: one trial, one chunk, and many chunks
    for code, spec in _chunk_codes(f2, f4, f5, f9):
        for trials in (1, 150):
            want = _replay(code, spec, trials)
            for entries in (simulator.STACK_ENTRIES, 1, 500):
                monkeypatch.setattr(simulator, "STACK_ENTRIES", entries)
                st = run_experiment(code, spec, trials)
                assert (st.correct, st.failure, st.wrong) == want[:3]
                # counts of array entries come back as Python ints
                assert {type(v) for v in (st.correct, st.failure, st.wrong)} == {int}
                # the integer sum over trials is fmean's value, exactly
                assert st.mean_distance == want[3]
                assert st.agreement == trials
            monkeypatch.undo()


def test_attempts_per_round_change_no_draw(f2, f4, f5, f9, monkeypatch):
    # the rule sizes each round by the exact full-rank probability: one
    # erasure of two dimensions over GF(2) is full rank with 3/4, so 200
    # trials need ceil(log(800) / log(4)) = 5 attempts a trial for under a
    # quarter of a trial to be left; one stack of STACK_ENTRIES caps it.
    # A GF(2) matrix wider than the word kernel is ranked on its own, and
    # its round takes one attempt
    f2_, f9_ = field_new(2), field_new(3, 2)
    assert simulator._attempts(f2_, 1, 2, 200) == 5
    assert simulator._attempts(f2_, 1, 2, 1) == 1
    assert simulator._attempts(f9_, 2, 3, 25) == 2
    assert simulator._attempts(f9_, 2, 3, 2000) == simulator.STACK_ENTRIES // (2000 * 6) == 2
    assert simulator._attempts(f2_, 7, 8, 1) > 1
    assert simulator._attempts(f2_, 8, 9, 1) == 1
    assert simulator._attempts(f2_, 95, 96, 1) == 1
    for code, spec in _chunk_codes(f2, f4, f5, f9):
        sent, received = simulator._draw(list(code), spec, 0, 150)
        for tries in (1, 64):
            monkeypatch.setattr(simulator, "_attempts", lambda *args: tries)
            got = simulator._draw(list(code), spec, 0, 150)
            assert np.array_equal(got[0], sent) and np.array_equal(got[1], received)
        monkeypatch.undo()


@pytest.mark.parametrize("p, n, basis", [
    (2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]),
    (3, 3, [[1, 0, 2], [0, 1, 1]]),
])
def test_erasures_are_uniform(p, n, basis):
    # one erasure of a 2-dimensional codeword leaves one of its q + 1
    # lines, each with probability 1 / (q + 1): over 6,000 seeded trials of
    # run_experiment's draw, the chi-square statistic of the line counts
    # stays below 21.1, the 0.9999 quantile for q = 3 degrees of freedom
    # (18.4 for q = 2), whatever the draw's rounds
    f = field_new(p)
    word = Subspace.span(f, n, basis)
    trials = 6000
    _, received = simulator._draw([word], ChannelSpec(1, 0, 2024), 0, trials)
    rows = received[:, 0]
    # each line by its vector whose first nonzero entry is 1
    lead = rows[np.arange(trials), (rows != 0).argmax(axis=1)]
    assert lead.all()
    lines = {}
    for row in (rows * lead[:, None] ** (p - 2) % p).tolist():
        lines[tuple(row)] = lines.get(tuple(row), 0) + 1
    assert len(lines) == p + 1 and all(word.contains(list(v)) for v in lines)
    expect = trials / (p + 1)
    chi2 = sum((c - expect) ** 2 / expect for c in lines.values())
    assert chi2 < {2: 18.4, 3: 21.1}[p], lines


def _skewed_run(code, spec, monkeypatch, skew):
    """run_experiment in chunks of fewer than 25 trials, with skew applied
    to the projection decision's verdict arrays (index, distance) of the
    third chunk; returns the error raised and the chunk size."""
    decoder = projection_decoder(code)
    honest = decoder._decide
    calls = []

    def skewed(stack):
        index, dist = honest(stack)
        calls.append(len(stack))
        if len(calls) == 3:
            index, dist = skew(index.copy(), dist.copy())
        return index, dist

    monkeypatch.setattr(decoder, "_decide", skewed)
    monkeypatch.setattr(simulator, "STACK_ENTRIES", 40)
    with pytest.raises(InternalInconsistency, match=r"trial (\d+):") as info:
        run_experiment(code, spec, 50)
    assert calls[0] < 25
    return str(info.value), calls[0]


def test_disagreement_names_the_trial(f5, monkeypatch):
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])

    def skew(index, dist):
        # the third chunk's second word (trial 2 k + 1 in chunks of k) is off by one
        dist[1] += 1
        return index, dist

    message, k = _skewed_run(code, ChannelSpec(0, 1, 7), monkeypatch, skew)
    assert f"trial {2 * k + 1}:" in message


def test_index_only_disagreement_names_the_trial(f5, monkeypatch):
    # with no erasure and no error every word is decoded at distance 0; the
    # third chunk's second word is turned into a tie at the same distance
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])

    def skew(index, dist):
        assert index[1] >= 0 and dist[1] == 0
        index[1] = -1
        return index, dist

    message, k = _skewed_run(code, ChannelSpec(0, 0, 7), monkeypatch, skew)
    assert f"trial {2 * k + 1}:" in message
    naive, projection = message.split("projection")
    assert "status='decoded'" in naive and "status='failure'" in projection
    assert "distance=0" in naive and "distance=0" in projection
