"""Benchmark of lcdsubspace: construct, decode and simulate workloads.

    python3 perfbench/run.py --workload decode-thm59 --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout.  The command prepares the seeded
inputs, times set-up in three fresh interpreters (two for decode-thm59; the
last one then runs the workload alone, in one thread, for --seconds),
checks every output and prints, as its last line, {"correct", "attempted",
"failed", "metrics"}.  Times are scaled to a reference machine speed (see
speed.py).  With --trace 1 the metrics are per-layer counters instead (see
layers.py).  The line before the last holds raw reference figures that are
not metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one string-hash layout for every measured process: with a random one,
# simulate-small's time per trial moved by up to 8% from process to process
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("construct-thm59", "decode-thm59", "simulate-small", "simulate-gf9")
# set-ups timed per run, each in a fresh interpreter; setup_s is their median.
# decode-thm59's set-up takes about 12 s, so it is timed twice, to keep a
# full run of the benchmark within its time budget.
SETUPS = {"decode-thm59": 2}
DEADLINE_S = 170     # a run ends, one way or another, within this


def spawn(args, inputs, probe, deadline):
    """Start worker.py; return its set-up seconds (until it printed "ready",
    less the probes it ran meanwhile), those probes, the share of bulk work
    in its set-up, and its last output line (None for a probe)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--inputs", inputs, "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if not ready.startswith("ready ") or code != 0:
        raise SystemExit(f"worker for {args.workload} failed (exit {code})")
    inside = json.loads(ready[len("ready "):])
    result = None if probe else json.loads(rest.strip().splitlines()[-1])
    return setup - inside["spent"], inside["probes"], inside["bulk"], result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    for need in ("src/lcdsubspace/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise SystemExit(f"{need} is missing: run from a source checkout")

    probe_start = speed.samples(10)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    path, problems = inputs.prepare(args.workload, args.seed)
    setups, raw_setups = [], []
    runs = 1 if args.trace else SETUPS.get(args.workload, 3)
    for k in range(runs):
        before = speed.samples(10)
        seconds, probes, bulk, result = spawn(args, path, k < runs - 1, deadline)
        raw_setups.append(seconds)
        setups.append(seconds * speed.scale(before + probes, bulk))
    probe_end = speed.samples(10)
    scale = result["scale"]

    problems += result["problems"]
    if args.trace:
        metrics = {k: {"value": v, "unit": "count" if k.endswith(
                       (".calls", ".cells", ".macs")) else "s"}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": result["raw_op_p50_ms"] * scale["op_p50_ms"],
                          "unit": "ms"},
            "ops_per_s": {"value": result["raw_ops_per_s"] / scale["ops_per_s"],
                          "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": result["ops"], "scale": scale, "raw_setup_s": raw_setups,
        "raw_op_p50_ms": result["raw_op_p50_ms"],
        "raw_ops_per_s": result["raw_ops_per_s"], **result["reference"],
        "probe_ms": {"start": [1e3 * t for t in speed.medians(probe_start)],
                     "run": result["probe_p50_ms"],
                     "end": [1e3 * t for t in speed.medians(probe_end)]},
        "problems": problems, "first_error": result["first_error"],
    }))
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
