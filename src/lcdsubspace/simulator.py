"""Operator-channel simulation: transmit a codeword subspace, erase random
dimensions, inject random error vectors, then decode with both decoders.

Per-trial randomness is counter-based: every trial derives its own RNG
stream from (rng_seed, trial_index), so results are reproducible and do not
depend on execution order.  The two decoders are required to agree exactly
on every trial; a disagreement is an internal error, not a statistic.

Trial i draws its codeword index from np.random.default_rng((rng_seed, i, 0))
and its channel from np.random.default_rng((rng_seed, i)), bit for bit, but
no default_rng and no Generator is built.  ``_streams`` hashes every
SeedSequence of a chunk in one vectorised pass and hands each distinct
hashed state one PCG64, which is asked once for the raw 64-bit words its
first draws need (``random_raw``); only a stream that runs short, after a
rank-deficient coefficient matrix or a rejected output, asks again.  Each
word gives two 32-bit outputs, its low half first, as PCG64's next_uint32
splits it, and every ``Generator.integers(0, q)`` draw is made on those
outputs by one vectorised bounded map per chunk (``_Words.take``): Lemire's
multiply-and-shift (u q) >> 32, an output being rejected, and the next one
taken, when (u q) mod 2^32 is below (2^32 - q) mod q (Lemire, "Fast Random
Integer Generation in an Interval", ACM TOMACS 2019), exactly as numpy
draws below 2^32.  For q == 1 no output is read.

SeedSequence zero-pads its entropy words up to its pool of four, so while
rng_seed and i take at most three 32-bit words between them (rng_seed <
2^64 and i < 2^32, say), (rng_seed, i, 0) and (rng_seed, i) seed the same
stream: they share one row of outputs, and the codeword index and the
channel each read it from its first output, so the two are not
independent.  Every seeded tally pinned in the tests and the benchmark's
re-draw depend on these streams, so they stay as they are.

``run_experiment`` runs its trials in chunks, sized so that the largest
stacked array of a chunk (the naive decoder's stacks [C_i; R]) holds about
``gf.STACK_ENTRIES`` entries.  A chunk draws every received word as
``corrupt`` draws it (the same streams, the same draw order, the same
full-rank retries), as arrays over all its trials, then decodes them all
with ``decode_naive_many`` and with the projection decoder's
``decode_many``, and compares the two trial by trial.  The chunking
changes no tally.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .codes import decode_naive_many, is_lcd_subspace_code, projection_decoder
from .errors import InternalInconsistency, InvalidSpec, NotLCDCode
from .gf import STACK_ENTRIES
from .subspaces import Subspace

_RANK_RETRY_CAP = 10 ** 4

# numpy.random.SeedSequence's hash constants, for its default pool of 4 words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)


@dataclass(frozen=True)
class ChannelSpec:
    """erasure_count dimensions are dropped, error_count random vectors
    adjoined; rng_seed drives all per-trial streams."""

    erasure_count: int
    error_count: int
    rng_seed: int = 0

    def __post_init__(self):
        # SeedSequence takes non-negative ints only; bool is an int to Python
        if (isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, int)
                or self.rng_seed < 0):
            raise InvalidSpec(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if self.erasure_count < 0:
            raise InvalidSpec("erasure_count must be >= 0")
        if self.error_count < 0:
            raise InvalidSpec("error_count must be >= 0")


@dataclass(frozen=True)
class TrialStats:
    """Outcome tallies of run_experiment; naive_seconds and
    projection_seconds are medians over chunks of each decoder's mean wall
    time per trial of the chunk."""

    trials: int
    correct: int
    failure: int
    wrong: int
    agreement: int
    mean_distance: float
    naive_seconds: float
    projection_seconds: float

    def __post_init__(self):
        if self.correct + self.failure + self.wrong != self.trials:
            raise InternalInconsistency("outcome tallies do not sum to trials")

    def as_dict(self):
        return {
            "trials": self.trials,
            "correct": self.correct,
            "failure": self.failure,
            "wrong": self.wrong,
            "agreement": self.agreement,
            "mean_distance": self.mean_distance,
            "naive_seconds": self.naive_seconds,
            "projection_seconds": self.projection_seconds,
        }


def corrupt(codeword, spec, trial_index):
    """Received subspace for one trial: a uniform (dim - erasures)-dimensional
    subspace of the codeword with error_count uniform vectors adjoined.

    It is drawn as run_experiment draws trial trial_index, from the raw
    words of the stream of default_rng((rng_seed, trial_index)) through the
    bounded map of _Words.take, which rejects outputs as
    Generator.integers does."""
    if spec.erasure_count > codeword.dim:
        raise InvalidSpec(
            f"cannot erase {spec.erasure_count} of {codeword.dim} dimensions")
    if spec.error_count > codeword.n:
        raise InvalidSpec(f"error_count {spec.error_count} exceeds n = {codeword.n}")
    if trial_index < 0:
        raise InvalidSpec(f"trial_index must be >= 0, got {trial_index}")
    words = _streams([(spec.rng_seed, trial_index)],
                     _first_words(codeword.dim, codeword.n, spec))
    rows, = _received_rows([codeword], spec, words, words.row)
    return Subspace(codeword.field, codeword.n, rows)


@functools.lru_cache(maxsize=None)
def _hashed_seed_type():
    """The seed sequence class of _streams, made on first use so that
    importing the package, as every CLI command does, does not import
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        """A seed sequence whose state is already hashed: the 4 uint64
        words that a PCG64 asks of its seed sequence."""

        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise InternalInconsistency(
                    f"a hashed seed holds 4 uint64 words, not {n_words} {dtype}")
            return self.state

    return HashedSeed


@functools.lru_cache(maxsize=None)
def _hash_consts(init, mult, count):
    """SeedSequence's hash constant before each of count hashing steps, and
    after the last: init, init * mult, init * mult^2, ... mod 2^32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False  # every caller shares the cached array
    return out


def _hashmix(values, consts):
    """SeedSequence's hashmix of values against each successive step of
    consts, len(consts) - 1 steps; an (m, 1) column of values is hashed
    once per step."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x, y):
    """SeedSequence's mix of pool words x into hashed words y."""
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> _XSHIFT
    return out


def _seed_states(entropy):
    """SeedSequence(e).generate_state(4, np.uint64) for every row e of
    entropy, an (m, L) uint32 array with L >= 4, all rows at once.

    This is SeedSequence's mix_entropy over a pool of 4 words, then its
    generate_state, with the loop over rows made array arithmetic: uint32
    arrays wrap around as SeedSequence's words do.
    """
    length = entropy.shape[1]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * length)
    pool = _hashmix(entropy[:, :_POOL], consts[:_POOL + 1])
    k = _POOL
    # mix every pool word into each of the others, so late bits reach early ones
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], consts[k:k + _POOL]))
        k += _POOL - 1
    # then each entropy word past the pool into every pool word
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], consts[k:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(pool[:, [0, 1, 2, 3] * 2], _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    # little-endian words, as SeedSequence pairs them
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _entropy_words(entropy):
    """The uint32 words SeedSequence takes from a tuple of non-negative ints:
    the little-endian 32-bit words of each, 0 being one word."""
    words = []
    for v in entropy:
        # a negative int would wrap silently in a uint32 array
        if v < 0:
            raise InvalidSpec(f"seed entropy must be non-negative, got {entropy}")
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


def _halves(raw):
    """The 32-bit outputs of raw PCG64 words, the low half of each word
    first, as PCG64's next_uint32 splits it: shape (..., 2 k) of (..., k)."""
    return np.ascontiguousarray(raw, dtype="<u8").view("<u4")


class _Words:
    """The 32-bit outputs of PCG64 streams, one row per distinct stream,
    drawn with random_raw as the draws need them.

    Row r of u32 holds the first have[r] outputs of gens[r], so every
    consumer of a stream reads the same outputs, each from its own cursor.
    row[e] is the row of the e-th stream asked of _streams.
    """

    def __init__(self, gens, row, first):
        self.gens = gens
        self.row = row
        raw = np.array([g.random_raw(first) for g in gens], dtype=np.uint64)
        self.u32 = _halves(raw.reshape(len(gens), first))
        self.have = np.full(len(gens), 2 * first, dtype=np.int64)

    def _fill(self, rows, need):
        """Ask the streams of rows for raw words until row rows[j] holds at
        least need[j] outputs; only rows that run short ask."""
        short = need > self.have[rows]
        for r, n in zip(rows[short].tolist(), need[short].tolist()):
            have = int(self.have[r])
            if n <= have:  # r came twice
                continue
            raw = self.gens[r].random_raw((n - have + 1) // 2)
            n = have + 2 * len(raw)
            if n > self.u32.shape[1]:
                wider = np.zeros((len(self.gens), max(n, 2 * self.u32.shape[1])),
                                 dtype=self.u32.dtype)
                wider[:, :self.u32.shape[1]] = self.u32
                self.u32 = wider
            self.u32[r, have:n] = _halves(raw)
            self.have[r] = n

    def take(self, rows, cursors, count, q):
        """count draws of Generator.integers(0, q) from stream rows[j], from
        its output cursors[j] on, for every j at once; returns the draws,
        shape (len(rows), count), and the cursors past them.

        This is Lemire's bounded map as numpy applies it to ranges below
        2^32: an output u gives (u q) >> 32 unless (u q) mod 2^32 is below
        (2^32 - q) mod q, when it is skipped and the next output tried.
        For q == 1 no output is read.  Rows whose first count outputs hold
        a skip read a window twice as wide, until they have count draws.
        """
        if not 1 <= q <= 2 ** 32:
            raise InternalInconsistency(f"bounded draws need 1 <= q <= 2**32, got {q}")
        out = np.zeros((len(rows), count), dtype=np.int64)
        if q == 1 or count == 0:
            return out, cursors
        skip = (2 ** 32 - q) % q
        cursors = cursors.copy()
        todo = np.arange(len(rows))
        width = count
        while len(todo):
            at = cursors[todo, None] + np.arange(width)
            self._fill(rows[todo], at[:, -1] + 1)
            scaled = self.u32[rows[todo, None], at].astype(np.uint64) * np.uint64(q)
            kept = (scaled & np.uint64(_MASK32)) >= skip
            seen = kept.cumsum(axis=1)
            done = seen[:, -1] >= count
            use = kept & (seen <= count) & done[:, None]
            out[todo[done]] = (scaled[use] >> np.uint64(32)).reshape(-1, count)
            cursors[todo[done]] += (seen[done] < count).sum(axis=1) + 1
            todo = todo[~done]
            width *= 2
        return out, cursors


def _streams(entropies, first):
    """The stream np.random.default_rng(e) gives for each tuple e of
    non-negative ints, bit for bit, as a _Words whose streams each hold
    their first `first` raw words.

    SeedSequence hashes a row of at most 4 entropy words as that row
    zero-padded to 4, so tuples whose padded rows are equal are one stream:
    one PCG64 and one row of outputs.  Every distinct row is hashed in one
    pass per length, and each PCG64 takes its hashed state, with no
    Generator.
    """
    key_row = {}
    row = []
    for e in entropies:
        words = _entropy_words(e)
        words += [0] * (_POOL - len(words))
        row.append(key_row.setdefault(tuple(words), len(key_row)))
    keys = list(key_row)
    by_length = {}
    for j, words in enumerate(keys):
        by_length.setdefault(len(words), []).append(j)
    states = np.empty((len(keys), _POOL), dtype=np.uint64)
    for ts in by_length.values():
        states[ts] = _seed_states(np.array([keys[j] for j in ts], dtype=np.uint32))
    seed = _hashed_seed_type()
    gens = [np.random.PCG64(seed(s)) for s in states]
    return _Words(gens, np.array(row, dtype=np.int64), first)


def _first_words(dim, n, spec):
    """The raw words a stream is first asked for: one 32-bit output for the
    codeword index, then one coefficient attempt and the error rows."""
    outputs = (dim - spec.erasure_count) * dim + spec.error_count * n
    return (max(outputs, 1) + 1) // 2


def _received_rows(sent, spec, words, rows):
    """Generator rows of the received word of each trial, the codeword of
    trial t being sent[t] and its stream row rows[t] of words.

    Trial i draws from its own stream, np.random.default_rng((rng_seed, i))
    bit for bit: coefficient matrices until one has full rank (at most
    _RANK_RETRY_CAP), then the error rows, every entry one
    Generator.integers(0, q) draw.  The draws are made on the streams' raw
    32-bit outputs by _Words.take, for all trials at once: the codewords
    share one dimension (an LCD code has one), so the trials share one
    shape.  Round by round the pending trials draw a coefficient matrix
    each and are ranked together; each codeword then multiplies the
    stacked coefficients of all its trials at once, and all trials draw
    their error rows from where their last attempt ended.
    """
    f = sent[0].field
    n, dim = sent[0].n, sent[0].dim
    if any(w.dim != dim for w in sent):
        raise InternalInconsistency("the codewords of one draw must share one dimension")
    keep = dim - spec.erasure_count
    trials = len(sent)
    out = np.empty((trials, keep + spec.error_count, n), dtype=np.int64)
    cursors = np.zeros(trials, dtype=np.int64)
    if keep > 0:
        coeffs = np.empty((trials, keep, dim), dtype=np.int64)
        pending = np.arange(trials)
        for _ in range(_RANK_RETRY_CAP):
            draws, cursors[pending] = words.take(rows[pending], cursors[pending], keep * dim, f.q)
            coeffs[pending] = draws.reshape(-1, keep, dim)
            pending = pending[f.ranks(coeffs[pending]) < keep]
            if not len(pending):
                break
        else:
            raise InternalInconsistency("could not draw a full-rank coefficient matrix")
        by_word = {}
        for t, w in enumerate(sent):
            by_word.setdefault(w, []).append(t)
        for w, ts in by_word.items():
            product = f.matmul(coeffs[ts].reshape(-1, dim), w.basis)
            out[ts, :keep] = product.reshape(len(ts), keep, n)
    errors, _ = words.take(rows, cursors, spec.error_count * n, f.q)
    out[:, keep:] = errors.reshape(trials, spec.error_count, n)
    return list(out)


def run_experiment(code, spec, trials):
    """Simulate `trials` transmissions and tabulate decoder outcomes.

    Trials run in chunks, each small enough that its stacked arrays hold
    about gf.STACK_ENTRIES entries.  The streams of a chunk, those of
    default_rng((rng_seed, i, 0)) for the codeword index and of
    default_rng((rng_seed, i)) for the channel, bit for bit, are seeded in
    one _streams pass, and each distinct stream draws its first raw words
    at once.  Trial i's codeword index is the first draw of
    Generator.integers(0, len(code)) on its index stream, made for all
    trials by one bounded map; every received word is drawn as corrupt()
    draws it, then decoded by decode_naive_many and by the projection
    decoder's decode_many.  The two verdicts must match exactly (same
    status, index, and distance) on every trial.  Timings are medians over
    chunks of the per-trial mean wall time, excluding the one-off decoder
    precomputation, which is cached on the code.
    """
    if trials < 1:
        raise InvalidSpec("trials must be >= 1")
    check = is_lcd_subspace_code(code)
    if not check.ok:
        raise NotLCDCode("simulation requires an LCD subspace code",
                         witness=check.witness)
    if spec.erasure_count > min(code.dims):
        raise InvalidSpec(
            f"erasure_count {spec.erasure_count} exceeds the minimum "
            f"codeword dimension {min(code.dims)}")
    if spec.error_count > code.n:
        raise InvalidSpec(
            f"error_count {spec.error_count} exceeds n = {code.n}")

    decoder = projection_decoder(code)
    # the naive decoder's stacks [C_i; R] (and [; R]) are the largest arrays
    height = max(code.dims) + max(code.dims) - spec.erasure_count + spec.error_count
    chunk = max(1, STACK_ENTRIES // ((len(code) + 1) * height * code.n))
    first = _first_words(code.dims[0], code.n, spec)
    correct = failure = wrong = agreement = 0
    distances = []
    naive_times = []
    proj_times = []
    for start in range(0, trials, chunk):
        indices = range(start, min(start + chunk, trials))
        m = len(indices)
        words = _streams([(spec.rng_seed, i, 0) for i in indices]
                         + [(spec.rng_seed, i) for i in indices], first)
        sent, _ = words.take(words.row[:m], np.zeros(m, dtype=np.int64), 1, len(code))
        sent = sent[:, 0].tolist()
        received = _received_rows([code[s] for s in sent], spec, words, words.row[m:])

        t0 = time.perf_counter()
        naive = decode_naive_many(code, received)
        t1 = time.perf_counter()
        proj = decoder.decode_many(received)
        t2 = time.perf_counter()
        naive_times.append((t1 - t0) / len(indices))
        proj_times.append((t2 - t1) / len(indices))

        for i, s, out_naive, out_proj in zip(indices, sent, naive, proj):
            if (out_naive.status, out_naive.index, out_naive.distance) != (
                    out_proj.status, out_proj.index, out_proj.distance):
                raise InternalInconsistency(
                    f"decoders disagree on trial {i}: naive {out_naive}, "
                    f"projection {out_proj}")
            agreement += 1
            distances.append(out_proj.distance)
            if out_proj.status == "failure":
                failure += 1
            elif out_proj.index == s:
                correct += 1
            else:
                wrong += 1

    if agreement != trials:
        raise InternalInconsistency("agreement count must equal trials")
    return TrialStats(
        trials=trials, correct=correct, failure=failure, wrong=wrong,
        agreement=agreement,
        mean_distance=float(statistics.fmean(distances)),
        naive_seconds=float(statistics.median(naive_times)),
        projection_seconds=float(statistics.median(proj_times)),
    )
