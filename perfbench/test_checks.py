"""Each benchmark check accepts a good output and rejects a broken one.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

import checks
import inputs
import layers

sys.path.insert(0, os.path.join(checks.ROOT, "src"))

from lcdsubspace import codes, fileio, simulator  # noqa: E402
from lcdsubspace.gf import field_new  # noqa: E402
from lcdsubspace.subspaces import Subspace  # noqa: E402

F2 = field_new(2)


def test_gf2_ranks_match_the_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        M = rng.integers(0, 2, (int(rng.integers(1, 9)), int(rng.integers(1, 140))))
        assert checks.gf2_ranks(M[None])[0] == checks.oracles.rank(F2, M.tolist())


def _small_gf2_doc(n=10, k=3, size=5):
    """A GF(2) LCD code with its true minimum distance, from the oracles."""
    rng = np.random.default_rng(11)
    words = []
    while len(words) < size:
        cand = rng.integers(0, 2, (k, n))
        pairs = [(cand, w) for w in words] + [(w, cand) for w in words]
        pairs.append((cand, cand))
        if checks.gf2_ranks(cand[None])[0] == k and all(
                checks.oracles.rank(F2, (a @ b.T % 2).tolist()) == k
                for a, b in pairs):
            words.append(cand)
    d = min(checks.oracles.subspace_distance(F2, n, a.tolist(), b.tolist())
            for i, a in enumerate(words) for b in words[i + 1:])
    doc = {"field": {"p": 2, "r": 1}, "lcd_verified": True,
           "params": {"n": n, "size": size, "d": d, "K": [k], "q": 2},
           "codewords": [w.tolist() for w in words]}
    return doc, (n, size, d, k)


def test_gf2_document_check_accepts_an_lcd_code():
    doc, expect = _small_gf2_doc()
    assert checks.gf2_doc_problems(doc, expect) == []


def test_gf2_document_check_rejects_a_non_lcd_pair():
    doc, expect = _small_gf2_doc()
    first = doc["codewords"][0]
    # a row orthogonal to every row of codeword 0 puts C_1 in C_0's dual
    v = checks.oracles.kernel_basis(F2, first, expect[0])[0]
    doc["codewords"][1][0] = v
    probs = checks.gf2_doc_problems(doc, expect)
    assert any("meets the dual" in p for p in probs), probs


def test_gf2_document_check_rejects_a_wrong_distance():
    doc, (n, size, d, k) = _small_gf2_doc()
    doc["params"]["d"] = d + 1
    probs = checks.gf2_doc_problems(doc, (n, size, d + 1, k))
    assert probs == [f"minimum pair distance is {d}, expected {d + 1}"]
    assert checks.gf2_doc_problems(doc, (n, size, d, k))


def test_received_words_sit_at_distance_one():
    doc, _ = _small_gf2_doc(n=12, k=4)
    basis = np.array(doc["codewords"][2])
    rng = np.random.default_rng(3)
    for erase in (True, False):
        rows = inputs._gf2_word(rng, basis, erase)
        assert checks.gf2_distances([rows], basis) == [1]
    assert checks.gf2_distances([basis], basis) == [0]


def test_decode_check_rejects_a_changed_index_or_distance():
    good = [[("decoded", 3, 1), ("decoded", 3, 1)],
            [("decoded", 0, 1), ("decoded", 0, 1)]]
    assert checks.decode_problems(good, [3, 0], 1) == []
    for w, slot, value in [(0, 1, 4), (1, 2, 2)]:
        bad = copy.deepcopy(good)
        triple = list(bad[w][0])
        triple[slot] = value
        bad[w][0] = tuple(triple)
        assert checks.decode_problems(bad, [3, 0], 1)
    assert checks.decode_problems(good, [3, 1], 1)


def test_gf9_code_check_accepts_the_generated_code():
    f, words = inputs._gf9_code(4)
    assert checks.oracle_code_problems(f, 8, words, 6) == []


def test_gf9_code_check_rejects_a_non_lcd_pair_and_a_wrong_distance():
    f, words = inputs._gf9_code(4)
    assert checks.oracle_code_problems(f, 8, words, 5)
    v = checks.oracles.kernel_basis(f, words[0], 8)[0]
    broken = [list(w) for w in words]
    broken[1] = [v] + broken[1][1:]
    probs = checks.oracle_code_problems(f, 8, broken, 6)
    assert any("C_1 meets the dual of C_0" in p for p in probs), probs


@pytest.fixture(scope="module")
def small_chunk(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "code.json"
    path.write_text(json.dumps({"field": {"p": 2, "r": 1}, "ambient": 4,
                                "codewords": inputs.README_CODE}))
    code = fileio.read_code_json(str(path))
    spec = simulator.ChannelSpec(1, 1, 77)
    stats = simulator.run_experiment(code, spec, 60).as_dict()
    sent = [int(np.random.default_rng((77, i, 0)).integers(0, len(code)))
            for i in range(60)]
    received = [simulator.corrupt(code[s], spec, i).basis.tolist()
                for i, s in enumerate(sent)]
    words = [w.basis.tolist() for w in code]
    return code, words, received, sent, stats


def test_tally_checks_accept_a_real_chunk(small_chunk):
    code, words, received, sent, stats = small_chunk
    assert checks.tally_problems(stats, 60) == []
    assert checks.retally_problems(code.field, 4, words, received, sent, stats) == []


def test_tally_checks_reject_altered_counts(small_chunk):
    code, words, received, sent, stats = small_chunk
    shifted = dict(stats, correct=stats["correct"] - 1, wrong=stats["wrong"] + 1)
    assert checks.tally_problems(shifted, 60) == []
    assert checks.retally_problems(code.field, 4, words, received, sent, shifted)
    assert checks.tally_problems(dict(stats, agreement=59), 60)
    assert checks.tally_problems(dict(stats, failure=stats["failure"] + 1), 60)
    far = dict(stats, mean_distance=stats["mean_distance"] + 0.5)
    assert checks.retally_problems(code.field, 4, words, received, sent, far)


def test_benchmark_json_lists_every_traced_counter():
    with open(os.path.join(checks.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [f"{name}.{stat}" for name in layers.TRACED for stat in layers.STATS]
    names += [metric for metric, _ in layers.COUNTED.values()]
    assert [m["name"] for m in bench["per_layer"]] == names


def test_tracer_counts_calls_and_self_time():
    code = codes.SubspaceCode(
        [Subspace(F2, 4, w) for w in inputs.README_CODE])
    tracer = layers.Tracer()
    try:
        before = tracer.snapshot()
        codes.decode_naive(code, [[1, 1, 1, 0]])
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert after["codes.decode_naive.calls"] - before["codes.decode_naive.calls"] == 1
    assert after["subspaces.distance.calls"] - before["subspaces.distance.calls"] == 3
    total = after["codes.decode_naive.total_s"] - before["codes.decode_naive.total_s"]
    own = after["codes.decode_naive.self_s"] - before["codes.decode_naive.self_s"]
    assert 0 < own < total
    assert after["gf.rref.cells"] > before["gf.rref.cells"]
