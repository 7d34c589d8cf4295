"""Machine-speed probe, and the scaling of times to a reference speed.

On a shared 2-vCPU virtual machine, where the reference figures of
README.md come from, speed drifts within minutes as other tenants load the
host, and it does not drift alike for all work: in one phase, interpreter
loops and numpy calls on small arrays ran 1.5-1.9 times slower while an
integer matmul of 192-column matrices kept its speed.  So the probe times
two kinds of work apart.  "tiny" is interpreter loops, numpy calls on tiny
matrices and row elimination on a 96 x 192 GF(2) matrix; "bulk" is the
integer matmul that projection decoding is made of.  A Sampler runs the
probe every quarter second from a timer signal, inside long operations too,
and its clock leaves the probes out.  A time is reported divided by its
slowdown

    (1 - f) * tiny / REFERENCE_TINY_S + f * bulk / REFERENCE_BULK_S

(medians of the probes taken during it), where f is the share of bulk work
in what was timed, fixed per workload and metric in worker.py: what the
time would read on that machine when both probes take their reference
time.  Raw figures stay in each run's reference line.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# seconds per probe() kind on that machine in a quiet phase
REFERENCE_TINY_S = 0.0125
REFERENCE_BULK_S = 0.0085

_SMALL = (np.arange(64, dtype=np.int64).reshape(8, 8) * 7) % 3
_SQUARE = np.random.default_rng(1).integers(0, 2, (192, 192))
_WIDE = np.random.default_rng(3).integers(0, 2, (96, 192))


def probe():
    """Seconds for one fixed round of tiny work and of bulk work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) & 0xFFFF
    M = _SMALL.copy()
    for i in range(1000):
        M = (M @ _SMALL + i) % 3
        np.flatnonzero(M[:, i % 8])
    E = _SQUARE[:96].copy()
    r = 0
    for c in range(E.shape[1]):
        nz = np.flatnonzero(E[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        E[[r, p]] = E[[p, r]]
        col = E[:, c].copy()
        col[r] = 0
        E[np.flatnonzero(col)] ^= E[r]
        r += 1
        if r == E.shape[0]:
            break
    t1 = time.perf_counter()
    for _ in range(2):
        (_WIDE @ _SQUARE) % 2
    return [t1 - t0, time.perf_counter() - t1]


def samples(k):
    return [probe() for _ in range(k)]


def medians(probes):
    """Median seconds of each probe kind, as [tiny, bulk]."""
    return [statistics.median(p[k] for p in probes) for k in (0, 1)]


def scale(probes, bulk):
    """Factor that takes a time measured among `probes`, with a share
    `bulk` of bulk work, to reference speed."""
    tiny_s, bulk_s = medians(probes)
    return 1 / ((1 - bulk) * tiny_s / REFERENCE_TINY_S
                + bulk * bulk_s / REFERENCE_BULK_S)


class Sampler:
    """Runs probe() every `every` seconds of wall time from SIGALRM, so that
    samples fall inside long operations as well as between them.

    clock() is time.perf_counter() less the time spent in probes; time
    operations with it.
    """

    def __init__(self, every=0.25):
        self.every = every
        self.probes = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self.spent

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
