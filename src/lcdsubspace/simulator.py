"""Operator-channel simulation: transmit a codeword subspace, erase random
dimensions, inject random error vectors, then decode with both decoders.

Per-trial randomness is counter-based: every trial derives its own RNG
stream from (rng_seed, trial_index), so results are reproducible and do not
depend on execution order.  The two decoders are required to agree exactly
on every trial; a disagreement is an internal error, not a statistic.

Trial i draws its codeword index from np.random.default_rng((rng_seed, i, 0))
and its channel from np.random.default_rng((rng_seed, i)), bit for bit, but
no default_rng is built: ``_streams`` hashes every SeedSequence of a chunk
in one vectorised pass and hands each PCG64 its hashed state.  SeedSequence
zero-pads its entropy words up to its pool of four, so while rng_seed and i
take at most three 32-bit words between them (rng_seed < 2^64 and
i < 2^32, say), (rng_seed, i, 0) and (rng_seed, i) seed the same stream: the
codeword index is drawn from a copy of the stream the channel draws from,
so the two are not independent.  Every seeded tally pinned in the tests and
the benchmark's re-draw depend on these streams, so they stay as they are.

``run_experiment`` runs its trials in chunks, sized so that the largest
stacked array of a chunk (the naive decoder's stacks [C_i; R]) holds about
``gf.STACK_ENTRIES`` entries.  A chunk draws every received word as
``corrupt`` draws it (the same streams, the same draw order, the same
full-rank retries), then decodes them all with ``decode_naive_many`` and with
the projection decoder's ``decode_many``, and compares the two trial by
trial.  The chunking changes no tally.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .codes import decode_naive_many, is_lcd_subspace_code, projection_decoder
from .errors import InternalInconsistency, InvalidSpec, NotLCDCode
from .gf import STACK_ENTRIES, padded_stack
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
    subspace of the codeword with error_count uniform vectors adjoined."""
    if spec.erasure_count > codeword.dim:
        raise InvalidSpec(
            f"cannot erase {spec.erasure_count} of {codeword.dim} dimensions")
    if spec.error_count > codeword.n:
        raise InvalidSpec(f"error_count {spec.error_count} exceeds n = {codeword.n}")
    if trial_index < 0:
        raise InvalidSpec(f"trial_index must be >= 0, got {trial_index}")
    rows, = _received_rows([codeword], spec, _streams([(spec.rng_seed, trial_index)]))
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


def _streams(entropies):
    """A generator per tuple e of non-negative ints, the stream
    np.random.default_rng(e) gives, bit for bit.

    Every SeedSequence of the list is hashed in one pass per entropy length:
    SeedSequence hashes a row of at most 4 words as that row zero-padded to
    4, so all such rows go together, and longer rows go in groups of equal
    length.  Each PCG64 then takes its row of the hashed states.
    """
    rows = [_entropy_words(e) for e in entropies]
    by_length = {}
    for t, words in enumerate(rows):
        by_length.setdefault(max(len(words), _POOL), []).append(t)
    states = [None] * len(rows)
    for length, ts in by_length.items():
        block = np.array([rows[t] + [0] * (length - len(rows[t])) for t in ts],
                         dtype=np.uint32)
        for t, state in zip(ts, _seed_states(block)):
            states[t] = state
    seed = _hashed_seed_type()
    return [np.random.Generator(np.random.PCG64(seed(s))) for s in states]


def _received_rows(sent, spec, rngs):
    """Generator rows of the received word of each trial, the codeword of
    trial t being sent[t] and its stream rngs[t].

    Trial i draws from its own stream, np.random.default_rng((rng_seed, i))
    bit for bit (_streams seeds a whole chunk's streams in one pass):
    coefficient matrices until one has full rank (at most _RANK_RETRY_CAP),
    then the error rows.  The draws of a stream do not depend on any other
    stream, so the trials' coefficient matrices are ranked together, round
    by round, and each codeword multiplies the stacked coefficients of all
    its trials at once.
    """
    f = sent[0].field
    n = sent[0].n
    keep = [w.dim - spec.erasure_count for w in sent]
    coeffs = [None] * len(sent)
    pending = [t for t, k in enumerate(keep) if k > 0]
    for _ in range(_RANK_RETRY_CAP):
        if not pending:
            break
        for t in pending:
            coeffs[t] = rngs[t].integers(0, f.q, size=(keep[t], sent[t].dim))
        ranks = f.ranks(padded_stack([coeffs[t] for t in pending]))
        pending = [t for t, r in zip(pending, ranks) if r < keep[t]]
    if pending:
        raise InternalInconsistency("could not draw a full-rank coefficient matrix")
    rows = [[] for _ in sent]
    by_word = {}
    for t, w in enumerate(sent):
        if keep[t] > 0:
            by_word.setdefault(w, []).append(t)
    for w, ts in by_word.items():
        product = f.matmul(np.vstack([coeffs[t] for t in ts]), w.basis)
        for t, block in zip(ts, np.split(product, len(ts))):
            rows[t].append(block)
    if spec.error_count > 0:
        for t, rng in enumerate(rngs):
            rows[t].append(rng.integers(0, f.q, size=(spec.error_count, n)))
    return [np.vstack(r) if r else np.zeros((0, n), dtype=np.int64) for r in rows]


def run_experiment(code, spec, trials):
    """Simulate `trials` transmissions and tabulate decoder outcomes.

    Trials run in chunks, each small enough that its stacked arrays hold
    about gf.STACK_ENTRIES entries.  The streams of a chunk, those of
    default_rng((rng_seed, i, 0)) for the codeword index and of
    default_rng((rng_seed, i)) for the channel, bit for bit, are seeded in
    one _streams pass; every received word is drawn as corrupt() draws it,
    then decoded by decode_naive_many and by the projection decoder's
    decode_many.  The two verdicts must match exactly (same status, index,
    and distance) on every trial.  Timings are medians over chunks of the
    per-trial mean wall time, excluding the one-off decoder precomputation,
    which is cached on the code.
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
    correct = failure = wrong = agreement = 0
    distances = []
    naive_times = []
    proj_times = []
    for start in range(0, trials, chunk):
        indices = range(start, min(start + chunk, trials))
        streams = _streams([(spec.rng_seed, i, 0) for i in indices]
                           + [(spec.rng_seed, i) for i in indices])
        sent = [int(g.integers(0, len(code))) for g in streams[:len(indices)]]
        received = _received_rows([code[s] for s in sent], spec, streams[len(indices):])

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
