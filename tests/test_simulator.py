import numpy as np
import pytest

from lcdsubspace import simulator
from lcdsubspace.codes import (
    DecodeOutcome,
    SubspaceCode,
    decode_naive,
    decode_projection,
    is_lcd_subspace_code,
    projection_decoder,
)
from lcdsubspace.errors import InternalInconsistency, InvalidSpec, NotLCDCode
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
    for t in (-1, -2 ** 32):
        with pytest.raises(InvalidSpec, match="trial_index"):
            corrupt(word_f2, ChannelSpec(0, 1), t)
    with pytest.raises(InvalidSpec, match="non-negative"):
        simulator._streams([(3, 0), (3, -1)], 1)


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


def _outputs(rng, words):
    """The 32-bit outputs of the next `words` raw words of a numpy
    Generator's PCG64, the low half of each word first."""
    raw = rng.bit_generator.random_raw(words)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist()


def test_streams_are_default_rng_streams():
    # entropy of 2 to 7 words, those past 4 through the extra mixing loop, all
    # seeded in one pass as a chunk's are, and one at a time as corrupt's are
    entropies = [(s, i, *tail) for tail in ((), (0,)) for s in _SEEDS for i in _TRIALS]
    assert {len(simulator._entropy_words(e)) for e in entropies} == {2, 3, 4, 5, 6, 7}
    words = simulator._streams(entropies, 3)
    # a stream asked past its first words asks its PCG64 again, in whole words
    asked = words.row[::2]
    words._fill(asked, np.full(len(asked), 11))
    for t, e in enumerate(entropies):
        r = words.row[t]
        want = np.random.default_rng(e)
        assert words.have[r] == (12 if r in asked else 6)
        assert words.u32[r, :words.have[r]].tolist() == _outputs(want, words.have[r] // 2), e
        assert words.gens[r].state == want.bit_generator.state, e
    # equal hashed states are one stream
    states = {str(np.random.default_rng(e).bit_generator.state) for e in entropies}
    assert len(words.gens) == len(states)
    for e in entropies[::7]:
        one = simulator._streams([e], 2)
        assert one.u32[0].tolist() == _outputs(np.random.default_rng(e), 2), e


@pytest.mark.parametrize("q", [1, 2, 3, 4, 9, 2 ** 20, 2 ** 31 + 1, 3 * 2 ** 30])
def test_bounded_draws_are_generator_integers(q):
    # consecutive calls with odd counts and scalar draws: a call that ends
    # on the low half of a raw word leaves its high half to the next call.
    # (s, i, 0) and (s, i) share a stream for these seeds, so most rows have
    # two consumers, each at its own cursor
    entropies = [(s, i, *tail) for s in _SEEDS[:4] for i in _TRIALS[:3] for tail in ((), (0,))]
    words = simulator._streams(entropies, 1)
    gens = [np.random.default_rng(e) for e in entropies]
    cursors = np.zeros(len(entropies), dtype=np.int64)
    skipped = 0
    for count in (1, 3, None, 5, 1, 7, None, 2, 9):
        got, after = words.take(words.row, cursors, count or 1, q)
        if count is None:
            want = [[int(g.integers(0, q))] for g in gens]
        else:
            want = [g.integers(0, q, size=count).tolist() for g in gens]
        assert got.tolist() == want
        skipped += int((after - cursors).sum()) - (got.size if q > 1 else 0)
        cursors = after
    # (2^32 - q) mod q of the 2^32 outputs are skipped: none for a power of
    # two, about 1 in 2 for 2^31 + 1 and 1 in 4 for 3 2^30
    assert (skipped > 0) == (q > 2 ** 30)
    if q == 1:
        assert not cursors.any()


def test_codeword_index_and_channel_share_a_stream_for_short_seeds():
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
    s, i = 2 ** 100 + 7, 3  # five words and six: two streams
    assert (np.random.default_rng((s, i, 0)).bit_generator.state
            != np.random.default_rng((s, i)).bit_generator.state)
    # _streams gives them one row of outputs, which each reads from the first
    assert simulator._streams([(7, 5, 0), (7, 5)], 1).row.tolist() == [0, 0]
    assert simulator._streams([(s, i, 0), (s, i)], 1).row.tolist() == [0, 1]


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
    dsum = 0
    for i in range(trials):
        sent = int(np.random.default_rng((spec.rng_seed, i, 0)).integers(0, len(code)))
        received = corrupt(code[sent], spec, i)
        assert received == _one_draw(code[sent], spec, i)
        a = decode_naive(code, received)
        b = decode_projection(code, received)
        assert a == b
        dsum += a.distance
        if a.status == "failure":
            failure += 1
        elif a.index == sent:
            correct += 1
        else:
            wrong += 1
    return correct, failure, wrong, dsum / trials


def _chunk_codes(f2, f5, f9):
    readme = SubspaceCode([span(f2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
                           span(f2, 4, [[1, 1, 1, 0], [0, 0, 0, 1]]),
                           span(f2, 4, [[1, 1, 0, 1], [0, 0, 1, 0]])])
    yield readme, ChannelSpec(1, 1, 31)
    f5_code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    yield f5_code, ChannelSpec(1, 1, 32)
    # an LCD subspace code has one dimension: dim C_i + dim C_j^perp > n otherwise
    f9_words = [span(f9, 5, [[1, 0, 2, 6, 7], [0, 1, 6, 5, 8]]),
                span(f9, 5, [[1, 0, 7, 4, 5], [0, 1, 3, 2, 6]]),
                span(f9, 5, [[1, 2, 3, 0, 5], [0, 0, 0, 1, 7]])]
    code = SubspaceCode(f9_words)
    assert bool(is_lcd_subspace_code(code))
    yield code, ChannelSpec(1, 2, 33)
    # every dimension erased, on a seed whose codeword index and channel
    # streams differ (five entropy words and four); no errors; no noise
    yield readme, ChannelSpec(2, 1, 2 ** 64 + 34)
    yield code, ChannelSpec(1, 0, 35)
    yield f5_code, ChannelSpec(0, 0, 36)
    # one codeword: the codeword index reads no output of its stream
    one = SubspaceCode(f9_words[:1])
    assert bool(is_lcd_subspace_code(one))
    yield one, ChannelSpec(1, 1, 37)


def test_chunked_experiment_matches_per_trial_replay(f2, f5, f9, monkeypatch):
    # every received word is drawn as corrupt() draws it and both decoders
    # see it, whatever the chunking: one trial, one chunk, and many chunks
    for code, spec in _chunk_codes(f2, f5, f9):
        for trials in (1, 150):
            want = _replay(code, spec, trials)
            for entries in (simulator.STACK_ENTRIES, 1, 500):
                monkeypatch.setattr(simulator, "STACK_ENTRIES", entries)
                st = run_experiment(code, spec, trials)
                assert (st.correct, st.failure, st.wrong) == want[:3]
                assert st.mean_distance == pytest.approx(want[3])
                assert st.agreement == trials
            monkeypatch.undo()


def test_disagreement_names_the_trial(f5, monkeypatch):
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    decoder = projection_decoder(code)
    honest = decoder.decode_many
    calls = []

    def skewed(words):
        # the third chunk's second word (trial 2 k + 1 in chunks of k) is off by one
        out = honest(words)
        calls.append(len(words))
        if len(calls) == 3:
            o = out[1]
            out[1] = DecodeOutcome(o.status, o.index, o.distance + 1)
        return out

    monkeypatch.setattr(decoder, "decode_many", skewed)
    monkeypatch.setattr(simulator, "STACK_ENTRIES", 40)
    with pytest.raises(InternalInconsistency, match=r"trial (\d+):") as info:
        run_experiment(code, ChannelSpec(0, 1, 7), 50)
    assert f"trial {2 * calls[0] + 1}:" in str(info.value)
    assert calls[0] < 25
