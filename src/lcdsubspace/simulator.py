"""Operator-channel simulation: transmit a codeword subspace, erase random
dimensions, inject random error vectors, then decode with both decoders.

Per-trial randomness is counter-based: every trial derives its own RNG
stream from (rng_seed, trial_index), so results are reproducible and do not
depend on execution order.  The two decoders are required to agree exactly
on every trial; a disagreement is an internal error, not a statistic.

``run_experiment`` runs its trials in chunks, sized so that the largest
stacked array of a chunk (the naive decoder's stacks [C_i; R]) holds about
``gf.STACK_ENTRIES`` entries.  A chunk draws every received word as
``corrupt`` draws it (the same streams, the same draw order, the same
full-rank retries), then decodes them all with ``decode_naive_many`` and with
the projection decoder's ``decode_many``, and compares the two trial by
trial.  The chunking changes no tally.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .codes import decode_naive_many, is_lcd_subspace_code, projection_decoder
from .errors import InternalInconsistency, InvalidSpec, NotLCDCode
from .gf import STACK_ENTRIES, padded_stack
from .subspaces import Subspace

_RANK_RETRY_CAP = 10 ** 4


@dataclass(frozen=True)
class ChannelSpec:
    """erasure_count dimensions are dropped, error_count random vectors
    adjoined; rng_seed drives all per-trial streams."""

    erasure_count: int
    error_count: int
    rng_seed: int = 0

    def __post_init__(self):
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
    rows, = _received_rows([codeword], spec, [trial_index])
    return Subspace(codeword.field, codeword.n, rows)


def _received_rows(sent, spec, trial_indices):
    """Generator rows of the received word of each trial, the codeword of
    trial trial_indices[t] being sent[t].

    Trial i draws from its own stream (rng_seed, i): coefficient matrices
    until one has full rank (at most _RANK_RETRY_CAP), then the error rows.
    The draws of a stream do not depend on any other stream, so the trials'
    coefficient matrices are ranked together, round by round, and each
    codeword multiplies the stacked coefficients of all its trials at once.
    """
    f = sent[0].field
    n = sent[0].n
    rngs = [np.random.default_rng((spec.rng_seed, i)) for i in trial_indices]
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
    about gf.STACK_ENTRIES entries: every received word of a chunk is drawn
    as corrupt() draws it, then decoded by decode_naive_many and by the
    projection decoder's decode_many.  The two verdicts must match exactly
    (same status, index, and distance) on every trial.  Timings are medians
    over chunks of the per-trial mean wall time, excluding the one-off
    decoder precomputation, which is cached on the code.
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
        sent = [int(np.random.default_rng((spec.rng_seed, i, 0)).integers(0, len(code)))
                for i in indices]
        received = _received_rows([code[s] for s in sent], spec, indices)

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
