"""Operator-channel simulation: transmit a codeword subspace, erase random
dimensions, inject random error vectors, then decode with both decoders.

Per-trial randomness is counter-based: every trial derives its own RNG
stream from (rng_seed, trial_index, 0), so results are reproducible and do
not depend on execution order.  The two decoders are required to agree exactly
on every trial; a disagreement is an internal error, not a statistic.

Trial i draws from the one stream of np.random.default_rng((rng_seed, i,
0)), bit for bit, whatever the seed, but no Generator and no bit generator
is built, and numpy.random is not imported.  The streams of a chunk of
trials are drawn in a fixed number of array passes, whatever the seed and
the trial indices:

- ``_states`` builds the SeedSequence entropy words of every stream as the
  columns of a uint32 array and hashes them together, as SeedSequence does;
- ``_raw`` runs PCG64 (O'Neill, "PCG: a family of simple fast
  space-efficient statistically good algorithms for random number
  generation", 2014) as 128-bit LCG arithmetic on pairs of uint64 arrays:
  t steps take a state s to A_t s + S_t inc, with A_t = M^t and
  S_t = 1 + M + ... + M^(t-1) mod 2^128 precomputed (``_jumps``), so a
  window of outputs of every stream is computed at once, each permuted by
  XSL-RR;
- each 64-bit output gives two 32-bit outputs, its low half first, as
  PCG64's next_uint32 splits it, and ``_bounded`` maps a whole window
  through Lemire's multiply-and-shift (u q) >> 32, an output being
  rejected when (u q) mod 2^32 is below (2^32 - q) mod q (Lemire, "Fast
  Random Integer Generation in an Interval", ACM TOMACS 2019), exactly as
  Generator.integers(0, q) draws below 2^32, and packs each stream's kept
  draws to the left;
- a trial's coefficient attempts and its error rows are slices of its
  stream's draws from its second output on (``_Draws.take``); only a
  stream that runs short draws a further window, from where its last one
  ended.

The codeword index is the stream's first Generator.integers(0,
len(words)) draw, which reads the first output, and the channel reads the
stream from its second output on, whatever the number of codewords.  So
the erasures and errors of a trial do not depend on the codeword it sends
(as on the operator channel of Koetter and Kschischang, "Coding for errors
and erasures in random network coding", IEEE T-IT 2008), and
``corrupt(codeword, spec, i)`` draws trial i as run_experiment does.  Only
when both halves of the first output are rejected does the index read on
into the channel's outputs, as numpy's draw does.  Every seeded tally
pinned in the tests and the benchmark's re-draw depend on these streams.

``run_experiment`` runs its trials in chunks, sized so that the largest
stacked array of a chunk (the naive decoder's stacks [C_i; R]) holds about
``gf.STACK_ENTRIES`` entries.  A chunk draws every received word as
``corrupt`` draws it, by the same function (the same streams, the same
draw order, the same full-rank retries), as one (trials x h x n) stack, the
format that ``codes._received_stack`` gives a batch of received words, in
range by construction.  So the chunk skips that preparer: it marks the stack
read-only and hands it, unconverted, to both decisions, those of
``decode_naive_many`` and of the projection decoder's ``decode_many``.
Each decision returns its verdicts as two arrays, codeword index (-1 for a
tie) and distance, and the chunk compares the two decisions in one array
comparison and tallies its outcomes by counting array entries; no outcome
object is built.  Both decoders take one branch per code, by the rule
``GF.stacked(n)`` (see ``codes``): on every field but GF(2), and on GF(2)
up to n = 8, as for the README's n = 4 code, each ranks the whole chunk
exactly, in one stack (over GF(2) on one word per row), and reads all its
verdicts in one pass; on wider GF(2) codes, as the (192, 31, 4; 96) code,
each word takes lazy, bounded scans of packed rows.  The chunking and the
branch change no tally.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .codes import _decide_naive, _outcome, is_lcd_subspace_code, projection_decoder
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
# PCG64's 128-bit LCG multiplier, and uint64 shifts and masks
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645
_LOW, _S32, _S58 = np.uint64(_MASK32), np.uint64(32), np.uint64(58)


@dataclass(frozen=True)
class ChannelSpec:
    """erasure_count dimensions are dropped, error_count random vectors
    adjoined; rng_seed drives all per-trial streams."""

    erasure_count: int
    error_count: int
    rng_seed: int = 0

    def __post_init__(self):
        # a seed is a Python int, never a bool, which is an int to Python
        _count("rng_seed", self.rng_seed, types=int)
        _count("erasure_count", self.erasure_count)
        _count("error_count", self.error_count)


@dataclass(frozen=True)
class TrialStats:
    """Outcome tallies of run_experiment; naive_seconds and
    projection_seconds are medians over chunks of each decoder's mean wall
    time per trial of the chunk, for its verdict arrays: no DecodeOutcome
    is built, so neither time includes building outcome objects."""

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
        """The fields by name, in declaration order."""
        return dict(vars(self))


def corrupt(codeword, spec, trial_index):
    """Received subspace for one trial: a uniform (dim - erasures)-dimensional
    subspace of the codeword with error_count uniform vectors adjoined.

    It is drawn as run_experiment draws trial trial_index, by the same
    _draw, from the stream of default_rng((rng_seed, trial_index, 0)) from
    its second 64-bit output on, bit for bit: whichever codeword that trial
    sends, this is its received word."""
    trial_index = _count("trial_index", trial_index)
    if spec.erasure_count > codeword.dim:
        raise InvalidSpec(
            f"cannot erase {spec.erasure_count} of {codeword.dim} dimensions")
    if spec.error_count > codeword.n:
        raise InvalidSpec(f"error_count {spec.error_count} exceeds n = {codeword.n}")
    _, (rows,) = _draw([codeword], spec, trial_index, 1)
    return Subspace(codeword.field, codeword.n, rows)


def _count(name, value, least=0, types=(int, np.integer)):
    """value as an int, if it is an integer of one of types (never a bool)
    and at least least; InvalidSpec otherwise."""
    if isinstance(value, bool) or not isinstance(value, types) or value < least:
        raise InvalidSpec(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    consts, len(consts) - 1 steps, one row of values per step; a (1, m) row
    of values is hashed once per step."""
    out = values ^ consts[:-1, None]
    out *= consts[1:, None]
    out ^= out >> _XSHIFT
    return out


def _mix(x, y):
    """SeedSequence's mix of pool words x into hashed words y."""
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> _XSHIFT
    return out


def _seed_states(entropy):
    """SeedSequence(e).generate_state(4, np.uint64) for every column e of
    entropy, an (L, m) uint32 array with L >= 4, all columns at once, as a
    (4, m) uint64 array.

    This is SeedSequence's mix_entropy over a pool of 4 words, then its
    generate_state, with the loop over seeds made array arithmetic: uint32
    arrays wrap around as SeedSequence's words do.
    """
    length = len(entropy)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * length)
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    k = _POOL
    # mix every pool word into each of the others, so late bits reach early ones
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src:src + 1], consts[k:k + _POOL]))
        k += _POOL - 1
    # then each entropy word past the pool into every pool word
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(entropy[src:src + 1], consts[k:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(pool[[0, 1, 2, 3] * 2], _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    # little-endian words, as SeedSequence pairs them
    state = state.astype(np.uint64)
    return state[0::2] | state[1::2] << _S32


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


def _states(seed, start, m):
    """SeedSequence((seed, i, 0)).generate_state(4, np.uint64) for each trial
    index i of range(start, start + m), as a (4, m) uint64 array.

    The low word of i is start's low word plus 0, ..., m - 1, and its carry
    c, the same for a run of trial indices, picks the words above it, those
    of (start >> 32) + c.  The entropy words of every seed are one column,
    zero-padded up to the pool of 4 words, as SeedSequence pads them, and
    the columns of each length are hashed in one _seed_states pass.
    """
    head, low = _entropy_words((seed,)), start & _MASK32
    runs = []
    for c in range((low + m - 1 >> 32) + 1):
        high = (start >> 32) + c
        at = np.arange(max(low, c << 32), min(low + m, c + 1 << 32))
        words = head + [0] + (_entropy_words((high,)) if high else []) + [0]
        cols = np.zeros((max(len(words), _POOL), len(at)), dtype=np.uint32)
        cols[:len(words)] = np.reshape(words, (-1, 1))
        cols[len(head)] = at & _MASK32
        # a run of the length of the one before it joins its pass
        if runs and len(runs[-1]) == len(cols):
            cols = np.hstack([runs.pop(), cols])
        runs.append(cols)
    return np.hstack([_seed_states(cols) for cols in runs])


@functools.lru_cache(maxsize=None)
def _jumps(steps):
    """PCG64's jumps of 1, ..., steps steps: t steps take a state s to
    A_t s + S_t inc mod 2^128, with A_t = M^t and S_t = 1 + M + ... +
    M^(t-1).  Returns, of [A; S], the high words, the low words, and the
    high and low 32-bit halves of the low words, each a (2, steps, 1)
    uint64 array."""
    a, s, jumps = 1, 0, []
    for _ in range(steps):
        a, s = a * _PCG_MULT % 2 ** 128, (s * _PCG_MULT + 1) % 2 ** 128
        jumps.append([[v >> 64, v & 2 ** 64 - 1, v >> 32 & _MASK32, v & _MASK32] for v in (a, s)])
    words = np.array(jumps, dtype=np.uint64).transpose(1, 0, 2)
    words.flags.writeable = False  # every caller shares the cached array
    return tuple(words[..., j, None] for j in range(4))


def _times(c, x):
    """c x mod 2^128 for every jump c of _jumps (2 x t x 1) and every value x
    of a (high, low) pair of 2 x k uint64 arrays, as a (high, low) pair of
    (2, t, k) arrays: the low words' full product from their 32-bit halves,
    and the cross terms mod 2^64."""
    (c_hi, c_lo, c1, c0), (x_hi, x_lo) = c, (v[:, None] for v in x)
    x0, x1 = x_lo & _LOW, x_lo >> _S32
    mid = c1 * x0 + (c0 * x0 >> _S32)
    low = c0 * x1 + (mid & _LOW)
    return c1 * x1 + (mid >> _S32) + (low >> _S32) + c_lo * x_hi + c_hi * x_lo, c_lo * x_lo


def _pcg(states):
    """PCG64's state and inc of each column of seed states (4 x m uint64),
    as a (high, low) pair of (2, m) uint64 arrays, the states in row 0 and
    the incs in row 1, with the state one step before the seeded one:
    numpy's seeding sets inc = 2 v_1 + 1 for the 128-bit
    v_1 = (states[2], states[3]), then steps from inc + v_0."""
    v0_hi, v0_lo, v1_hi, v1_lo = states
    inc_hi = (v1_hi << np.uint64(1)) | (v1_lo >> np.uint64(63))
    inc_lo = (v1_lo << np.uint64(1)) | np.uint64(1)
    low = v0_lo + inc_lo
    return np.stack([v0_hi + inc_hi + (low < v0_lo), inc_hi]), np.stack([low, inc_lo])


def _raw(pcg, words, lead):
    """The next `words` 64-bit outputs of the PCG64 streams pcg (as _pcg
    gives them) whose states are `lead` steps behind, as a (words, k)
    uint64 array, one column per stream, and the states after them.

    Output j comes from A_(lead+j) s + S_(lead+j) inc (see _jumps), every
    stream and step at once, permuted by XSL-RR: the high word XOR the low
    word, rotated right by the state's top 6 bits.
    """
    (hi_a, hi_s), (lo_a, lo_s) = _times(_jumps(words + lead), pcg)
    lo = lo_a + lo_s
    hi = hi_a + hi_s + (lo < lo_s)
    x, rot = hi[lead:] ^ lo[lead:], hi[lead:] >> _S58
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63))), (hi[-1], lo[-1])


def _bounded(raw, q):
    """Generator.integers(0, q) draws, for a uint64 q, on the 32-bit outputs
    of each column of raw 64-bit outputs (w x k), the low half of each
    output first, as PCG64's next_uint32 splits it: Lemire's (u q) >> 32,
    an output u being rejected when (u q) mod 2^32 is below
    (2^32 - q) mod q.  Returns each column's kept draws packed to the top,
    shape (2 w, k), and how many each column kept."""
    scaled = np.stack([raw & _LOW, raw >> _S32], axis=1).reshape(-1, raw.shape[1]) * q
    kept = (scaled & _LOW) >= (np.uint64(2 ** 32) - q) % q
    draws = (scaled >> _S32).astype(np.int64)
    if not kept.all():
        draws = np.take_along_axis(draws, np.argsort(~kept, axis=0, kind="stable"), axis=0)
    return draws, kept.sum(axis=0)


class _Draws:
    """The Generator.integers(0, q) draws of the PCG64 stream of each column
    r of seed states (4 x m uint64) from its second raw output on, drawn a
    window at a time.

    Column r of draws holds the first have[r] draws of stream r; the first
    window maps `words` raw outputs of every stream after its first, and a
    stream that is asked past its draws maps a further window, from its
    state, where its last one ended.  The first raw outputs, which no draw
    reads, stay apart as first (1 x m), so that the codeword index can be
    drawn from them.
    """

    def __init__(self, states, q, words):
        if not 1 <= q <= 2 ** 32:
            raise InternalInconsistency(f"bounded draws need 1 <= q <= 2**32, got {q}")
        self.q = np.uint64(q)
        self.pcg = _pcg(states)
        raw = self._outputs(slice(None), 1 + words, 1)
        self.first = raw[:1]
        self.draws, self.have = _bounded(raw[1:], self.q)

    def _outputs(self, rows, words, lead=0):
        """The next `words` raw outputs of the streams rows (an index array
        or a slice); the streams step past them."""
        raw, (hi, lo) = _raw(tuple(v[:, rows] for v in self.pcg), words, lead)
        self.pcg[0][0, rows], self.pcg[1][0, rows] = hi, lo
        return raw

    def take(self, rows, start, count):
        """count draws of each stream rows[j] (distinct rows), from its draw
        start[j] on (start may be one int for all rows), shape
        (len(rows), count)."""
        end = np.reshape(start, -1) + count
        short = self.have[rows] < end
        while short.any():
            more = rows[short]
            words = (int((end - self.have[rows])[short].max()) + 1) // 2
            draws, kept = _bounded(self._outputs(more, words), self.q)
            depth = int(self.have[more].max()) + len(draws) - len(self.draws)
            if depth > 0:
                more_rows = np.zeros((depth, self.draws.shape[1]), dtype=np.int64)
                self.draws = np.concatenate([self.draws, more_rows])
            self.draws[self.have[more] + np.arange(len(draws))[:, None], more] = draws
            self.have[more] += kept
            short = self.have[rows] < end
        return self.draws[np.reshape(start, (-1, 1)) + np.arange(count), rows[:, None]]


def _attempts(f, keep, dim, pending):
    """Coefficient attempts per pending trial in one round.  A stack the
    field ranks whole (f.stacked(dim)) costs a fixed number of numpy calls
    per row (per column on F_2 words), whatever its size, so a round ranks
    the fewest attempts that leave, at the exact probability
    prod_i (1 - q^(i - dim)), i < keep, that a uniform keep x dim matrix has
    full rank, under a quarter of a trial pending in expectation, up to one
    stack of STACK_ENTRIES entries.  Past that each matrix is ranked on its
    own, and a round ranks one attempt.  It changes no draw, only how many
    are ranked at once."""
    if not f.stacked(dim):
        return 1
    miss = 1 - math.prod(1 - float(f.q) ** (i - dim) for i in range(keep))
    want = math.ceil(math.log(4 * pending) / -math.log(miss)) if miss > 0 else 1
    return max(1, min(want, STACK_ENTRIES // (pending * keep * dim)))


def _draw(words, spec, start, m):
    """Codeword indices into words, and the generator rows of the received
    words as one stack (m x h x n), of trials i = start, ..., start + m - 1.

    Trial i draws from the one stream of np.random.default_rng((rng_seed,
    i, 0)), bit for bit.  Its codeword index is the stream's first draw of
    Generator.integers(0, len(words)), which is 0 for one codeword.
    Its channel reads the stream from its second 64-bit output on, whatever
    the number of codewords: coefficient matrices until one has full rank
    (giving up past _RANK_RETRY_CAP attempts), then the error rows, every
    entry one Generator.integers(0, q) draw, so that attempt a is draws
    a kd, ..., (a + 1) kd - 1 for kd = keep x dim, and the error rows follow
    the first full-rank one.  The codewords share one dimension (an LCD
    code has one), so the trials share one shape.  Every stream is seeded
    in one _states pass and drawn by one _Draws, whose first window holds
    the first round of attempts and the error rows, and which keeps each
    stream's first output apart: a trial's index is the first kept draw of
    its two halves below len(words).  A trial that keeps neither half, with
    probability at most ((2^32 mod N) / 2^32)^2 for N = len(words), draws
    its index on from the second output, as numpy does, by a second _Draws
    over its state; its index then reads outputs its channel reads too.
    Round by round each pending trial takes _attempts(...) attempts, all
    ranked in one stack, and keeps its first full-rank one.  One product
    then multiplies the chosen coefficients of all trials by the bases of
    the codewords sent side by side (those present, in index order), and
    each trial takes the block of its own codeword.
    """
    f, n, dim = words[0].field, words[0].n, words[0].dim
    if any(w.dim != dim for w in words):
        raise InternalInconsistency("the codewords of one draw must share one dimension")
    keep = dim - spec.erasure_count
    kd, en, every = keep * dim, spec.error_count * n, np.arange(m)
    states = _states(spec.rng_seed, start, m)
    tries = _attempts(f, keep, dim, m) if keep else 0
    draws = _Draws(states, f.q, (tries * kd + en + 1) // 2)
    # for one codeword every draw below 1 is kept, and is 0
    index, kept = _bounded(draws.first, np.uint64(len(words)))
    sent, lost = index[0], np.flatnonzero(kept == 0)
    if len(lost):
        # both halves rejected: the index reads on from the second output
        again = _Draws(states[:, lost], len(words), 1)
        sent[lost] = again.take(np.arange(len(lost)), 0, 1)[:, 0]
    chosen = np.zeros(m, dtype=np.int64)
    pending, tried = (every if keep else every[:0]), 0
    while len(pending):
        if tried >= _RANK_RETRY_CAP:
            raise InternalInconsistency("could not draw a full-rank coefficient matrix")
        tries = _attempts(f, keep, dim, len(pending))
        coeffs = draws.take(pending, tried * kd, tries * kd).reshape(-1, keep, dim)
        full = (f._ranks(coeffs) == keep).reshape(-1, tries)
        hit = full.any(axis=1)
        chosen[pending[hit]] = tried + full.argmax(axis=1)[hit]
        pending, tried = pending[~hit], tried + tries
    rows = draws.take(every, chosen * kd, kd + en)
    out = np.empty((m, keep + spec.error_count, n), dtype=np.int64)
    if keep:
        present = np.zeros(len(words), dtype=bool)
        present[sent] = True
        used, slot = np.flatnonzero(present), np.cumsum(present)[sent] - 1
        bases = np.hstack([words[u].basis for u in used.tolist()])
        product = f._product(rows[:, :kd].reshape(-1, dim), bases)
        out[:, :keep] = product.reshape(m, keep, len(used), n)[every, :, slot]
    out[:, keep:] = rows[:, kd:].reshape(m, spec.error_count, n)
    return sent, out


def run_experiment(code, spec, trials):
    """Simulate `trials` transmissions and tabulate decoder outcomes.

    Trials run in chunks, each small enough that its stacked arrays hold
    about gf.STACK_ENTRIES entries.  A chunk's codeword indices and its
    received words, each trial's from the first output of the stream of
    default_rng((rng_seed, i, 0)) and from its second output on, bit for
    bit, are drawn by corrupt()'s _draw, in a fixed number of array passes,
    the received
    words into one read-only stack, which both decisions take as it is:
    decode_naive_many's and the projection decoder's decode_many's.  The
    two verdicts must match exactly (same index, -1 for a tie, and
    distance) on every trial, compared as arrays, chunk by chunk; a
    mismatch raises InternalInconsistency naming the first differing trial
    and both its outcomes.  The tallies are counts of array entries, and
    mean_distance the integer sum of the distances divided by trials.  Timings
    are medians over chunks of the per-trial mean wall time, excluding the
    one-off decoder precomputation, which is cached on the code.
    """
    trials = _count("trials", trials, least=1)
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
    correct = failure = wrong = agreement = total = 0
    naive_times = []
    proj_times = []
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        sent, received = _draw(list(code), spec, start, m)
        # both decisions read this one stack; neither may change it
        received.flags.writeable = False

        t0 = time.perf_counter()
        naive = _decide_naive(code, received)
        t1 = time.perf_counter()
        index, dist = proj = decoder._decide(received)
        t2 = time.perf_counter()
        naive_times.append((t1 - t0) / m)
        proj_times.append((t2 - t1) / m)

        differ = np.flatnonzero((naive[0] != index) | (naive[1] != dist))
        if differ.size:
            t = differ[0]
            raise InternalInconsistency(
                f"decoders disagree on trial {start + t}: naive "
                f"{_outcome(*(int(v[t]) for v in naive))}, projection "
                f"{_outcome(*(int(v[t]) for v in proj))}")
        agreement += m
        total += int(dist.sum())
        failure += np.count_nonzero(index < 0)
        correct += np.count_nonzero(index == sent)
        wrong += np.count_nonzero((index >= 0) & (index != sent))

    if agreement != trials:
        raise InternalInconsistency("agreement count must equal trials")
    return TrialStats(
        trials=trials, correct=int(correct), failure=int(failure), wrong=int(wrong),
        agreement=agreement,
        mean_distance=total / trials,
        naive_seconds=float(statistics.median(naive_times)),
        projection_seconds=float(statistics.median(proj_times)),
    )
