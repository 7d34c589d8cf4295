"""Seeded workload inputs, written under perfbench/out/ and checked before use.

The program only ever sees the files made here.  Everything is derived from
the workload seed, except the ``thm59`` code document, which the program's
own ``construct`` command makes once per source tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import checks

ROOT = checks.ROOT
OUT = os.path.join(ROOT, "perfbench", "out")
BUSH = ["src/lcdsubspace/data/bush16_a.txt", "src/lcdsubspace/data/bush16_b.txt"]
CONSTRUCT_ARGV = ["construct", "thm59", *BUSH, "--p", "2"]
THM59 = (192, 31, 4, 96)  # (n, size, d, K) of the order-16 Bush-pair code

DECODE_WORDS = 64
CHUNK_SEEDS = 4096
README_CODE = [
    [[0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 1, 1, 0], [0, 0, 0, 1]],
    [[1, 1, 0, 1], [0, 0, 1, 0]],
]
# (erasures, errors, trials per run_experiment call) of each channel
CHANNELS = {"simulate-small": (1, 1, 200), "simulate-gf9": (1, 1, 25)}
GF9 = {"n": 8, "k": 3, "size": 6, "d": 6}


def _write(path, doc):
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)
    return path


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lcdsubspace")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".txt")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def thm59_document():
    """Path of the thm59 code document of this source tree, made on demand by

        PYTHONPATH=src python3 -m lcdsubspace.cli construct thm59 \\
            src/lcdsubspace/data/bush16_a.txt src/lcdsubspace/data/bush16_b.txt \\
            --p 2 -o perfbench/out/thm59-<digest>.json
    """
    path = os.path.join(OUT, f"thm59-{_source_digest()}.json")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, "-m", "lcdsubspace.cli",
                        *CONSTRUCT_ARGV, "-o", tmp],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       check=True, timeout=170)
        os.replace(tmp, path)
    return path


def _gf2_word(rng, basis, erase):
    """Generators of a space at distance 1 from the row space of basis: one
    dimension erased, or one vector from outside adjoined."""
    k, n = basis.shape
    while True:
        mix = rng.integers(0, 2, (k - 1 if erase else k, k))
        if checks.gf2_ranks(mix[None])[0] == mix.shape[0]:
            break
    rows = mix @ basis % 2
    if not erase:
        while True:
            e = rng.integers(0, 2, (1, n))
            if checks.gf2_ranks(np.vstack([basis, e])[None])[0] == k + 1:
                break
        at = int(rng.integers(0, k + 1))
        rows = np.vstack([rows[:at], e, rows[at:]])
    return rows


def decode_inputs(seed, problems):
    doc_path = thm59_document()
    with open(doc_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems += [f"thm59 document: {p}" for p in checks.gf2_doc_problems(doc, THM59)]
    bases = np.array(doc["codewords"], dtype=np.int64)
    words = []
    for w in range(DECODE_WORDS):
        rng = np.random.default_rng([seed, w])
        sent = int(rng.integers(0, len(bases)))
        rows = _gf2_word(rng, bases[sent], erase=w % 2 == 0)
        if checks.gf2_distances([rows], bases[sent]) != [1]:
            problems.append(f"received word {w} is not at distance 1")
        words.append({"sent": sent, "rows": rows.tolist()})
    return {"code": os.path.relpath(doc_path, ROOT), "words": words}


def _gf9_code(seed):
    """Six 3-dimensional subspaces of GF(9)^8 with invertible Gram blocks
    G_i G_j^T for every ordered pair and pairwise trivial intersections."""
    from lcdsubspace.gf import field_new

    f = field_new(3, 2)
    n, k, size = GF9["n"], GF9["k"], GF9["size"]

    def gram_det(a, b):
        g = [[0] * k for _ in range(k)]
        for r in range(k):
            for c in range(k):
                acc = 0
                for x, y in zip(a[r], b[c]):
                    acc = f.add(acc, f.mul(x, y))
                g[r][c] = acc
        return checks.oracles.det_leibniz(f, g)

    rng = np.random.default_rng([seed, 9])
    words = []
    while len(words) < size:
        cand = rng.integers(0, f.q, (k, n)).tolist()
        if checks.oracles.rank(f, cand) != k or not gram_det(cand, cand):
            continue
        if all(gram_det(cand, w) and gram_det(w, cand)
               and checks.oracles.rank(f, cand + w) == 2 * k for w in words):
            words.append(cand)
    return f, words


def simulate_inputs(workload, seed, problems):
    if workload == "simulate-gf9":
        f, words = _gf9_code(seed)
        problems += [f"GF(9) code: {p}" for p in checks.oracle_code_problems(
            f, GF9["n"], words, GF9["d"])]
        field, n = {"p": 3, "r": 2}, GF9["n"]
    else:
        words, field, n = README_CODE, {"p": 2, "r": 1}, 4
    code_path = _write(os.path.join(OUT, f"{workload}-{seed}-code.json"),
                       {"field": field, "ambient": n, "codewords": words})
    erasures, errors, trials = CHANNELS[workload]
    chunk_seeds = np.random.default_rng([seed, 1]).integers(0, 2 ** 31, CHUNK_SEEDS)
    return {"code": os.path.relpath(code_path, ROOT), "erasures": erasures,
            "errors": errors, "trials": trials, "seeds": chunk_seeds.tolist()}


def prepare(workload, seed):
    """Write the inputs of one run; return (path, problems found in them)."""
    os.makedirs(OUT, exist_ok=True)
    problems = []
    if workload == "construct-thm59":
        doc = {"argv": CONSTRUCT_ARGV, "expect": THM59}
    elif workload == "decode-thm59":
        doc = decode_inputs(seed, problems)
    else:
        doc = simulate_inputs(workload, seed, problems)
    path = _write(os.path.join(OUT, f"{workload}-{seed}.json"), doc)
    return path, problems
