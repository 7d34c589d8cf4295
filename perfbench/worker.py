"""One benchmark process: set up a workload, print "ready", run it, check it.

run.py starts this file.  A speed.Sampler runs from the first line, and
"ready" is followed by the probes made during set-up and the share of bulk
work in set-up.  With --probe the process exits right after "ready", so
run.py can time set-up alone.
Otherwise it runs whole operations until --seconds have passed (one at
least), reads its peak RSS, checks every output (outside all timed regions)
and prints one JSON line of raw figures; run.py scales them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback

import numpy as np

import speed

SAMPLER = speed.Sampler().start()  # probes set-up from the start
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import lcdsubspace  # noqa: E402
from lcdsubspace import cli, codes, fileio, simulator  # noqa: E402

# Each workload class loads its inputs in __init__ (part of set-up), and
# op() performs one operation, keeps its outputs for problems(), and returns
# the seconds, by SAMPLER.clock, that op_p50_ms takes its median over.
# per_op is the number of attempted operations one op() stands for.
# bulk is the share of bulk work (speed.py) in what each metric times,
# from interleaving each kind of operation with the probe on the reference
# machine: the thm59 operations spend much of their time in integer matmuls
# of 192-column matrices, the simulate ones in calls on tiny arrays.
# problems() imports checks itself, so that set-up never pays for it.


class Construct:
    """`lcdsubspace construct thm59` through cli.main; one call per op."""

    per_op = 1
    bulk = {"setup_s": 0.0, "op_p50_ms": 0.4, "ops_per_s": 0.4}

    def __init__(self, spec):
        self.argv = spec["argv"]
        self.expect = tuple(spec["expect"])
        self.outputs = {}

    def op(self):
        buf = io.StringIO()
        t0 = SAMPLER.clock()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        seconds = SAMPLER.clock() - t0
        if rc != 0:
            raise RuntimeError(f"construct exited with {rc}")
        text = buf.getvalue()
        self.outputs[text] = self.outputs.get(text, 0) + 1
        return seconds

    def reference(self):
        return {}

    def problems(self):
        import checks

        if len(self.outputs) > 1:
            return [f"{len(self.outputs)} different documents from one command"]
        return [p for text in self.outputs
                for p in checks.gf2_doc_problems(json.loads(text), self.expect)]


class Decode:
    """ProjectionDecoder.decode, then decode_naive, on one received word per
    op; op() returns the projection time alone."""

    per_op = 1
    bulk = {"setup_s": 0.45, "op_p50_ms": 0.8, "ops_per_s": 0.5}

    def __init__(self, spec):
        self.code = fileio.read_code_json(os.path.join(ROOT, spec["code"]))
        self.decoder = codes.ProjectionDecoder(self.code)
        self.words = [np.array(w["rows"], dtype=np.int64) for w in spec["words"]]
        self.sent = [w["sent"] for w in spec["words"]]
        self.outcomes = []
        self.naive_times = []

    def op(self):
        rows = self.words[len(self.outcomes) % len(self.words)]
        t0 = SAMPLER.clock()
        proj = self.decoder.decode(rows)
        t1 = SAMPLER.clock()
        naive = codes.decode_naive(self.code, rows)
        t2 = SAMPLER.clock()
        self.outcomes.append([(o.status, o.index, o.distance) for o in (proj, naive)])
        self.naive_times.append(t2 - t1)
        return t1 - t0

    def reference(self):
        return {"naive_p50_ms": 1e3 * statistics.median(self.naive_times)}

    def problems(self):
        import checks

        return checks.decode_problems(self.outcomes, self.sent, 1)


class Simulate:
    """simulator.run_experiment on one chunk of trials per op; every trial
    is one attempted operation and op() returns seconds per trial."""

    bulk = {"setup_s": 0.0, "op_p50_ms": 0.0, "ops_per_s": 0.0}

    def __init__(self, spec):
        self.code = fileio.read_code_json(os.path.join(ROOT, spec["code"]))
        check = codes.is_lcd_subspace_code(self.code)
        if not check.ok:
            raise SystemExit(f"simulation code is not LCD: {check.witness}")
        self.erasures, self.errors = spec["erasures"], spec["errors"]
        self.per_op = spec["trials"]
        self.seeds = spec["seeds"]
        self.stats = []

    def spec(self, j):
        return simulator.ChannelSpec(self.erasures, self.errors,
                                     self.seeds[j % len(self.seeds)])

    def op(self):
        spec = self.spec(len(self.stats))
        t0 = SAMPLER.clock()
        stats = simulator.run_experiment(self.code, spec, self.per_op)
        seconds = SAMPLER.clock() - t0
        self.stats.append(stats.as_dict())
        return seconds / self.per_op

    def reference(self):
        return {f"{name}_p50_ms": 1e3 * statistics.median(
                    s[f"{name}_seconds"] for s in self.stats)
                for name in ("projection", "naive")}

    def problems(self):
        import checks

        trials = self.per_op
        probs = []
        for j, s in enumerate(self.stats):
            probs += [f"chunk {j}: {p}" for p in checks.tally_problems(s, trials)]
            if self.code.field.q != 2 and s["correct"] != trials:
                probs.append(f"chunk {j}: {s['correct']} of {trials} trials "
                             "decoded correctly inside the decoding radius")
        if self.code.field.q == 2 and self.stats:
            # re-draw chunk 0 as run_experiment does: the codeword index from
            # the stream (seed, i, 0), the received space from corrupt()
            spec = self.spec(0)
            sent = [int(np.random.default_rng((spec.rng_seed, i, 0))
                        .integers(0, len(self.code))) for i in range(trials)]
            received = [simulator.corrupt(self.code[s], spec, i).basis.tolist()
                        for i, s in enumerate(sent)]
            words = [w.basis.tolist() for w in self.code]
            probs += checks.retally_problems(self.code.field, self.code.n,
                                             words, received, sent, self.stats[0])
        return probs


WORKLOADS = {"construct-thm59": Construct, "decode-thm59": Decode,
             "simulate-small": Simulate, "simulate-gf9": Simulate}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    if not os.path.abspath(lcdsubspace.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lcdsubspace imported from {lcdsubspace.__file__}")
    os.chdir(ROOT)
    with open(args.inputs, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer(SAMPLER.clock)
    load = WORKLOADS[args.workload](spec)
    print("ready", json.dumps({"spent": SAMPLER.spent, "probes": SAMPLER.probes,
                               "bulk": load.bulk["setup_s"]}), flush=True)
    if args.probe:
        return 0

    before = tracer.snapshot() if tracer else None
    SAMPLER.probes = []
    op_times, busy, attempted, failed, ops, first_error = [], 0.0, 0, 0, 0, None
    start = SAMPLER.clock()
    while not ops or SAMPLER.clock() - start < args.seconds:
        t0 = SAMPLER.clock()
        try:
            op_times.append(load.op())
        except Exception:  # a faulty operation is counted, not fatal
            failed += load.per_op
            first_error = first_error or traceback.format_exc()
        busy += SAMPLER.clock() - t0
        attempted += load.per_op
        ops += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = tracer.snapshot() if tracer else None
    SAMPLER.stop()
    probes = SAMPLER.probes or speed.samples(3)

    out = {
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "scale": {m: speed.scale(probes, load.bulk[m])
                  for m in ("op_p50_ms", "ops_per_s")},
        "probe_p50_ms": [1e3 * t for t in speed.medians(probes)],
        "raw_op_p50_ms": 1e3 * statistics.median(op_times or [busy / ops]),
        "raw_ops_per_s": attempted / busy,
        "peak_rss_mb": peak_rss_mb,
        "reference": load.reference() if op_times else {},
        "first_error": first_error,
        "problems": load.problems(),
    }
    if tracer:
        out["per_layer"] = {
            k: v * out["scale"]["op_p50_ms"] if k.endswith("_s") else v
            for k, v in layers.per_layer(before, after, ops).items()}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SAMPLER.stop()  # a timer signal during interpreter exit would kill it
