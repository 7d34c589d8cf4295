import dataclasses
import math
import statistics
from fractions import Fraction

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
    with pytest.raises(InvalidSpec, match="non-negative"):
        simulator._states(-1, 0, 1)


def test_corrupt_frozen_fixtures(word_f2, f2):
    # the values of oracles.channel_trial, the replay on numpy's Generator
    spec = ChannelSpec(0, 1, 42)
    assert corrupt(word_f2, spec, 3) == word_f2  # error row fell inside the span
    out = corrupt(word_f2, spec, 2)
    assert out.basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    out = corrupt(word_f2, ChannelSpec(1, 0, 42), 0)
    assert out.basis.tolist() == [[1, 0, 1, 0]]
    for (erasures, errors), i in (((0, 1), 3), ((0, 1), 2), ((1, 0), 0)):
        _, rows = oracles.channel_trial(f2, [word_f2.basis.tolist()], erasures, errors, 42, i)
        assert corrupt(word_f2, ChannelSpec(erasures, errors, 42), i) == Subspace(f2, 4, rows)


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
    # every field, in declaration order, as the CLI document lists them
    assert list(d) == [f.name for f in dataclasses.fields(TrialStats)]
    assert list(d.values()) == [10, 5, 4, 1, 10, 0.5, 0.1, 0.1]


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
    # the tallies of the replay through oracles.channel_trial and
    # oracles.syndrome_decode
    st = run_experiment(code_f5, ChannelSpec(0, 1, 7), 300)
    assert (st.trials, st.correct, st.failure, st.wrong) == (300, 47, 253, 0)
    assert st.agreement == 300
    assert st.mean_distance == 253 / 300


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
_STARTS = (0, 199, 2 ** 32 - 2)


def test_streams_are_default_rng_streams():
    # entropy of 3 to 7 words, those past 4 through the extra mixing loop,
    # seeded as a chunk's are: every trial index of a run at once, one
    # _seed_states pass per length, the runs below crossing 2^32
    assert {len(simulator._entropy_words((s, i, 0)))
            for s in _SEEDS for i in _TRIALS} == {3, 4, 5, 6, 7}
    for s in _SEEDS:
        for start, m in zip(_STARTS, (3, 1, 4)):
            pcg = simulator._pcg(simulator._states(s, start, m))
            first, after = simulator._raw(pcg, 3, 1)
            # outputs past the first window, from where it ended
            pcg[0][0], pcg[1][0] = after
            more, _ = simulator._raw(pcg, 8, 0)
            for j in range(m):
                e = (s, start + j, 0)
                want = np.random.default_rng(e).bit_generator.random_raw(11).tolist()
                assert first[:, j].tolist() + more[:, j].tolist() == want, e
    # one trial at a time, as corrupt seeds its stream
    for i in _TRIALS:
        pcg = simulator._pcg(simulator._states(2 ** 100 + 7, i, 1))
        want = np.random.default_rng((2 ** 100 + 7, i, 0)).bit_generator.random_raw(2)
        assert simulator._raw(pcg, 2, 1)[0][:, 0].tolist() == want.tolist()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 9, 2 ** 20, 2 ** 31 + 1, 3 * 2 ** 30])
def test_bounded_draws_are_generator_integers(q):
    # consecutive calls with odd counts and scalar draws: a call that ends
    # on the low half of a raw output leaves its high half to the next call,
    # so the calls draw one sequence, which _Draws reads in slices, from a
    # stream's second raw output on.  Its first window holds 2 raw outputs a
    # stream past the first, so most slices are drawn by later windows, each
    # from where the last one ended
    entropies = [(s, i, 0) for s in _SEEDS for i in _TRIALS[:3]]
    states = np.hstack([simulator._states(s, i, 1) for s, i, _ in entropies])
    draws = simulator._Draws(states, q, 2)
    rows = np.arange(len(entropies))
    gens = [np.random.default_rng(e) for e in entropies]
    assert draws.first[0].tolist() == [g.bit_generator.random_raw() for g in gens]
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
        # numpy reads no output for q == 1, so a one-codeword code's index
        # draws, all 0, leave its stream to the channel from the second
        # output on
        for g, e in zip(gens, entropies):
            fresh = np.random.default_rng(e)
            fresh.bit_generator.random_raw(1)
            assert g.bit_generator.state == fresh.bit_generator.state


def _channel(seed, i):
    """The channel's Generator for trial i: the stream of
    default_rng((seed, i, 0)) after its first raw output."""
    rng = np.random.default_rng((seed, i, 0))
    rng.bit_generator.random_raw(1)
    return rng


def test_channel_reads_the_index_stream_after_its_first_output(f5):
    # one stream per trial, whatever the seed: the index is its first draw,
    # from its first output, and the channel reads on from the second, for
    # a seed of one word and for one of four (three entropy words and six)
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    i = 4
    for seed in (7, 2 ** 100 + 7):
        spec = ChannelSpec(0, 1, seed)
        sent, rows = simulator._draw(list(code), spec, i, 1)
        assert sent.tolist() == [int(np.random.default_rng((seed, i, 0)).integers(0, 2))]
        channel = _channel(seed, i)
        coeff = int(channel.integers(0, 5))  # nonzero here: a full-rank 1 x 1 attempt
        assert coeff and rows[0].tolist() == [(coeff * code[sent[0]].basis[0] % 5).tolist(),
                                              channel.integers(0, 5, size=2).tolist()]
        # the channel of one codeword alone, as corrupt draws it, is the same
        assert corrupt(code[sent[0]], spec, i) == Subspace(f5, 2, rows[0])


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


def _gf3_code(f3):
    return SubspaceCode([span(f3, 6, [[1, 1, 0, 0, 1, 2], [0, 0, 1, 0, 1, 0]]),
                         span(f3, 6, [[1, 0, 2, 1, 1, 0], [0, 1, 1, 1, 0, 2]]),
                         span(f3, 6, [[1, 0, 1, 1, 1, 2], [0, 1, 1, 0, 1, 0]])])


def _f4_code(f4):
    return SubspaceCode([span(f4, 5, [[1, 0, 2, 0, 3], [0, 1, 2, 2, 2]]),
                         span(f4, 5, [[1, 0, 2, 3, 2], [0, 1, 1, 0, 2]]),
                         span(f4, 5, [[1, 0, 0, 3, 0], [0, 1, 2, 3, 3]])])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_draw_is_the_oracle_replay_trial_by_trial(q, f2, f3, f4, f9):
    # index and rows of every trial, whatever the seed's length, from chunks
    # that start below and cross 2^32, against oracles.channel_trial
    code = {2: _readme_code(f2), 3: _gf3_code(f3), 4: _f4_code(f4), 9: _f9_code(f9)}[q]
    words = list(code)
    bases = [w.basis.tolist() for w in words]
    for seed in _SEEDS + (2 ** 64 - 1,):
        for start in _STARTS:
            for erasures, errors in ((1, 1), (0, 2), (2, 1)):
                spec = ChannelSpec(erasures, errors, seed)
                sent, rows = simulator._draw(words, spec, start, 4)
                for j in range(4):
                    want = oracles.channel_trial(code.field, bases, erasures, errors,
                                                 seed, start + j)
                    assert (sent[j], rows[j].tolist()) == want, (seed, start + j, spec)


def test_every_seed_draws_index_and_channel_in_one_pass(f2, monkeypatch):
    # a chunk seeds one stream a trial, in one _seed_states pass of m
    # columns, and reads each codeword index from the first output of the
    # channel's _Draws, for a seed of one word, of three and of four
    columns, built = _spy_draw(monkeypatch)
    words = list(_readme_code(f2))
    for seed in (7, 2 ** 64, 2 ** 100 + 7):
        columns.clear(), built.clear()
        simulator._draw(words, ChannelSpec(1, 1, seed), 0, 200)
        assert columns == [200] and built == [2]


def test_codeword_indices_are_default_rng_draws_either_side_of_the_pool(f2, f9, monkeypatch):
    # (s, i, 0) takes 4 words for s = 2^64 - 1 and i < 2^32, 5 words for
    # s = 2^64 or i >= 2^32: whatever side of SeedSequence's pool of 4 a
    # trial's seed falls, and in the chunk from 2^32 - 3, which crosses from
    # one to the other, the chunk draws index and channel by one _Draws
    _, built = _spy_draw(monkeypatch)
    for code in (_readme_code(f2), _f9_code(f9)):
        words = list(code)
        bases = [w.basis.tolist() for w in words]
        for seed in (2 ** 64 - 1, 2 ** 64):
            for start in (0, 2 ** 32 - 3):
                built.clear()
                sent, rows = simulator._draw(words, ChannelSpec(1, 1, seed), start, 6)
                assert len(built) == 1
                for j, i in enumerate(range(start, start + 6)):
                    assert sent[j] == np.random.default_rng((seed, i, 0)).integers(0, 3)
                    want = oracles.channel_trial(code.field, bases, 1, 1, seed, i)
                    assert (sent[j], rows[j].tolist()) == want


def test_index_without_a_draw_in_the_first_output_reads_on(f2, f9, monkeypatch):
    # a trial whose first raw output keeps no index draw, both halves
    # rejected (at most ((2^32 mod k) / 2^32)^2 per trial for k codewords),
    # draws its index on from the second output, as numpy's integers does,
    # by a second _Draws over its state alone; no channel draw changes.
    # The bounded map below 3 rejects both halves of a raw output of 0, so
    # trial 0's first output is set to 0 once the channel's _Draws has read it
    init, built = simulator._Draws.__init__, []

    def no_index_draw(self, states, q, words):
        init(self, states, q, words)
        built.append((q, states.shape[1]))
        if q != 3:
            self.first[0, 0] = 0

    for code, spec in ((_readme_code(f2), ChannelSpec(1, 1, 31)),
                       (_f9_code(f9), ChannelSpec(1, 2, 33))):
        words = list(code)
        want = [simulator._draw(words, spec, 0, m) for m in (1, 150)]
        reads_on = int(_channel(spec.rng_seed, 0).integers(0, 3))
        monkeypatch.setattr(simulator._Draws, "__init__", no_index_draw)
        for m, (sent, rows) in zip((1, 150), want):
            built.clear()
            got = simulator._draw(words, spec, 0, m)
            assert built == [(code.field.q, m), (3, 1)]
            assert got[0][0] == reads_on and np.array_equal(got[0][1:], sent[1:])
            assert np.array_equal(got[1][1:], rows[1:])
            # trial 0's channel is unchanged; its index may send another word
            one = [words[reads_on].basis.tolist()]
            _, rows0 = oracles.channel_trial(code.field, one, spec.erasure_count,
                                             spec.error_count, spec.rng_seed, 0)
            assert got[1][0].tolist() == rows0
        monkeypatch.undo()
    # a channel that reads no draw (every dimension erased and no errors)
    sent, rows = simulator._draw(list(_readme_code(f2)), ChannelSpec(2, 0, 7), 0, 5)
    assert rows.shape == (5, 0, 4)
    assert sent.tolist() == [np.random.default_rng((7, i, 0)).integers(0, 3) for i in range(5)]


def _outputs(rng, words):
    """The 32-bit outputs of the next `words` raw words of a numpy
    Generator's PCG64, the low half of each word first."""
    raw = rng.bit_generator.random_raw(words)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist()


def _replay(code, spec, trials):
    """Tallies of a per-trial replay: each trial drawn by
    oracles.channel_trial, on numpy's own Generator, checked against
    corrupt, and decoded by decode_naive and decode_projection."""
    bases = [w.basis.tolist() for w in code]
    correct = failure = wrong = 0
    dists = []
    for i in range(trials):
        sent, rows = oracles.channel_trial(code.field, bases, spec.erasure_count,
                                           spec.error_count, spec.rng_seed, i)
        received = Subspace(code.field, code.n, np.array(rows, dtype=np.int64).reshape(-1, code.n))
        assert corrupt(code[sent], spec, i) == received
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
# 5,000; seed 43130 rejects an output of the channel streams of trials 0 to
# 149, and draws a singular first coefficient matrix for trial 52
_BIG_P, _BIG_SEED = 1048367, 43130


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
        channel = _channel(spec.rng_seed, i)
        # the first attempt and the error rows read 12 draws, from the
        # channel's first 12 outputs or more; an output is read if one
        # after it is
        outputs = _outputs(_channel(spec.rng_seed, i), 6)
        rejected += [(i, j) for j, u in enumerate(outputs) if u * q % 2 ** 32 < skip]
        if oracles.rank(code.field, channel.integers(0, q, size=(2, 2)).tolist()) < 2:
            singular.append(i)
    assert rejected == [(23, 1)] and singular == [52]
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
    f4_code = _f4_code(f4)
    assert bool(is_lcd_subspace_code(f4_code))
    yield f4_code, ChannelSpec(1, 1, 38)
    # every dimension erased, on a seed of three words (five entropy words
    # with the trial index and 0); no errors; no noise
    yield readme, ChannelSpec(2, 1, 2 ** 64 + 34)
    yield code, ChannelSpec(1, 0, 35)
    yield f5_code, ChannelSpec(0, 0, 36)
    # one codeword: no index is drawn, and the channel still reads its
    # stream from the second output on
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
    word = Subspace.span(field_new(p), n, basis)
    _, received = simulator._draw([word], ChannelSpec(1, 0, 2024), 0, 6000)
    _assert_uniform_lines(word, received[:, 0])


@pytest.mark.parametrize("p", [2, 3])
def test_erasures_are_uniform_whatever_the_codeword_sent(p, f2, f3):
    # the channel does not depend on the codeword sent: among the trials
    # that send each of three codewords, one erasure leaves each of its
    # lines alike, under the same bound.  A codeword index read from the
    # channel's first output once made codeword 0 of the README code keep
    # (0, 0, 0, 1) in two trials out of three
    code = _readme_code(f2) if p == 2 else _gf3_code(f3)
    words = list(code)
    sent, received = simulator._draw(words, ChannelSpec(1, 0, 2024), 0, 6000)
    for k, word in enumerate(words):
        assert np.count_nonzero(sent == k) > 1800
        _assert_uniform_lines(word, received[sent == k, 0])


def _assert_uniform_lines(word, rows):
    """The rows (one a trial) lie on every line of the 2-dimensional word
    over a prime field, with a chi-square statistic of the line counts
    below the 0.9999 quantile for q degrees of freedom."""
    p = word.field.p
    # each line by its vector whose first nonzero entry is 1
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    assert lead.all()
    lines = {}
    for row in (rows * lead[:, None] ** (p - 2) % p).tolist():
        lines[tuple(row)] = lines.get(tuple(row), 0) + 1
    assert len(lines) == p + 1 and all(word.contains(list(v)) for v in lines)
    expect = len(rows) / (p + 1)
    chi2 = sum((c - expect) ** 2 / expect for c in lines.values())
    assert chi2 < {2: 18.4, 3: 21.1}[p], lines


def test_one_erasure_fails_at_the_exact_rate(f2):
    # on the LCD code {<1000, 0001>, <1000, 0111>, <1010, 0111>} of F_2^4 an
    # erasure leaves one of the three lines of the codeword sent, each
    # alike, and a line that lies in two codewords is a tie, a failure.  So
    # the failure rate is the share of ties among the codewords' lines, 4/9,
    # and 9,000 trials fail within 4 sigma of 9,000 x 4/9 = 4,000 (3,812 to
    # 4,188).  An index that shared the channel's first output once read
    # 2,519 failures at seed 7
    code = SubspaceCode([span(f2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
                         span(f2, 4, [[1, 0, 0, 0], [0, 1, 1, 1]]),
                         span(f2, 4, [[1, 0, 1, 0], [0, 1, 1, 1]])])
    spans = [oracles.span_tuples(f2, 4, w.basis.tolist()) for w in code]
    # over GF(2) a line is its one nonzero vector
    ties = [sum(v in other for other in spans) > 1 for own in spans for v in own if any(v)]
    rate = Fraction(sum(ties), len(ties))
    assert rate == Fraction(4, 9)
    trials = 9000
    mean, sigma = trials * rate, math.sqrt(trials * rate * (1 - rate))
    assert (math.ceil(mean - 4 * sigma), math.floor(mean + 4 * sigma)) == (3812, 4188)
    for seed in (7, 12345):
        st = run_experiment(code, ChannelSpec(1, 0, seed), trials)
        assert abs(st.failure - mean) <= 4 * sigma, (seed, st.failure)


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
