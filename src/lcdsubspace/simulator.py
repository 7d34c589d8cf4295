"""Operator-channel simulation: transmit a codeword subspace, erase random
dimensions, inject random error vectors, then decode with both decoders.

Per-trial randomness is counter-based: every trial derives its own RNG
stream from (rng_seed, trial_index), so results are reproducible and do not
depend on execution order.  The two decoders are required to agree exactly
on every trial; a disagreement is an internal error, not a statistic.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .codes import decode_naive, is_lcd_subspace_code, projection_decoder
from .errors import InternalInconsistency, InvalidSpec, NotLCDCode
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
    f = codeword.field
    n = codeword.n
    if spec.erasure_count > codeword.dim:
        raise InvalidSpec(
            f"cannot erase {spec.erasure_count} of {codeword.dim} dimensions")
    if spec.error_count > n:
        raise InvalidSpec(f"error_count {spec.error_count} exceeds n = {n}")
    rng = np.random.default_rng((spec.rng_seed, trial_index))
    keep = codeword.dim - spec.erasure_count
    rows = []
    if keep > 0:
        for _ in range(_RANK_RETRY_CAP):
            coeff = rng.integers(0, f.q, size=(keep, codeword.dim))
            coeff = coeff.astype(np.int64)
            if f.rank(coeff) == keep:
                break
        else:
            raise InternalInconsistency(
                "could not draw a full-rank coefficient matrix")
        rows.append(f.matmul(coeff, codeword.basis))
    if spec.error_count > 0:
        errs = rng.integers(0, f.q, size=(spec.error_count, n))
        rows.append(errs.astype(np.int64))
    if not rows:
        return Subspace.zero(f, n)
    return Subspace(f, n, np.vstack(rows))


def run_experiment(code, spec, trials):
    """Simulate `trials` transmissions and tabulate decoder outcomes.

    Both decoders run on every received word; their verdicts must match
    exactly (same status, index, and distance).  Timings are medians of
    per-trial wall time, excluding the one-off decoder precomputation,
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
    correct = failure = wrong = agreement = 0
    distances = []
    naive_times = []
    proj_times = []
    for i in range(trials):
        pick = np.random.default_rng((spec.rng_seed, i, 0))
        sent = int(pick.integers(0, len(code)))
        received = corrupt(code[sent], spec, i)

        t0 = time.perf_counter()
        out_naive = decode_naive(code, received)
        t1 = time.perf_counter()
        out_proj = decoder.decode(received)
        t2 = time.perf_counter()
        naive_times.append(t1 - t0)
        proj_times.append(t2 - t1)

        if (out_naive.status, out_naive.index, out_naive.distance) != (
                out_proj.status, out_proj.index, out_proj.distance):
            raise InternalInconsistency(
                f"decoders disagree on trial {i}: naive {out_naive}, "
                f"projection {out_proj}")
        agreement += 1
        distances.append(out_proj.distance)
        if out_proj.status == "failure":
            failure += 1
        elif out_proj.index == sent:
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
