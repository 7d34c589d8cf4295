import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import lcdsubspace
from lcdsubspace import fileio
from lcdsubspace.cli import main
from lcdsubspace.codes import SubspaceCode
from lcdsubspace.hadamard import sylvester
from lcdsubspace.subspaces import span

import oracles

BUNDLED = Path(lcdsubspace.__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_pm1(path, M, comment=None):
    fileio.write_matrix(path, M, "pm1", comment=comment)
    return str(path)


def k44_files(tmp_path):
    a1 = np.array(oracles.complete_bipartite_adjacency(4, 4), dtype=np.int64)
    a2 = np.zeros((8, 8), dtype=np.int64)
    a2[:4, :4] = 1
    a2[4:, 4:] = 1
    a2 -= np.eye(8, dtype=np.int64)
    p1 = tmp_path / "a1.txt"
    p2 = tmp_path / "a2.txt"
    fileio.write_matrix(p1, a1, "int")
    fileio.write_matrix(p2, a2, "int")
    return [str(p1), str(p2)]


def test_usage_is_exit_2(capsys):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2


def test_verify_hadamard(tmp_path, capsys):
    f = write_pm1(tmp_path / "h.txt", sylvester(2).entries)
    rc, out, _ = run(capsys, "verify", "hadamard", f)
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["order"] == 4


def test_verify_hadamard_bad_input_is_exit_1(tmp_path, capsys):
    f = write_pm1(tmp_path / "h.txt", np.ones((2, 2), dtype=np.int64))
    rc, out, err = run(capsys, "verify", "hadamard", f)
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "GramFailure" and "message" in doc


def test_verify_missing_file_is_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    rc, _, err = run(capsys, "verify", "hadamard", missing)
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "FileNotFoundError"
    assert doc["witness"] == missing and "message" in doc


def test_verify_weighing(tmp_path, capsys):
    f = str(tmp_path / "w.txt")
    fileio.write_matrix(f, np.eye(3, dtype=np.int64), "zpm1")
    rc, out, _ = run(capsys, "verify", "weighing", f)
    assert rc == 0
    assert json.loads(out)["weight"] == 1


def test_verify_scheme(tmp_path, capsys):
    rc, out, _ = run(capsys, "verify", "scheme", *k44_files(tmp_path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["classes"] == 2 and doc["size"] == 8
    assert doc["valencies"] == [1, 4, 3]


def test_verify_drg(tmp_path, capsys):
    g = tmp_path / "petersen.txt"
    lines = []
    adj = oracles.petersen_adjacency()
    for u in range(10):
        for v in range(u + 1, 10):
            if adj[u][v]:
                lines.append(f"{u + 1} {v + 1}")
    g.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "drg", str(g))
    assert rc == 0
    doc = json.loads(out)
    assert doc["intersection_array"] == {"b": [3, 2], "c": [1, 1]}

    star = tmp_path / "star.txt"
    star.write_text("1 2\n1 3\n1 4\n")
    rc, out, _ = run(capsys, "verify", "drg", str(star))
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_verify_partition(tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("1 3\n2\n")
    mat = tmp_path / "m.txt"
    fileio.write_matrix(mat, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]), "int")
    rc, out, _ = run(capsys, "verify", "partition", str(part), str(mat))
    assert rc == 0
    doc = json.loads(out)
    assert doc["cell_sizes"] == [2, 1] and doc["equal_cells"] is False

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    rc, out, _ = run(capsys, "verify", "partition", str(bad), str(mat))
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_search_mub_order4(tmp_path, capsys):
    prefix = str(tmp_path / "mub")
    rc, out, _ = run(capsys, "search", "mub", "--order", "4",
                     "--target", "2", "--out", prefix)
    assert rc == 0
    doc = json.loads(out)
    assert doc["found"] == 2 and doc["reached_target"]
    mats = [fileio.read_matrix(f).matrix for f in doc["files"]]
    assert len(mats) == 2
    from lcdsubspace.hadamard import HadamardMatrix, are_unbiased

    assert are_unbiased(HadamardMatrix(mats[0]), HadamardMatrix(mats[1])).ok


def test_search_budget_exhausted_is_exit_1(tmp_path, capsys):
    rc, _, err = run(capsys, "search", "mub", "--order", "4", "--target", "2",
                     "--budget", "0", "--out", str(tmp_path / "mub"))
    assert rc == 1
    assert json.loads(err)["error"] == "BudgetExhausted"


def test_construct_thm51(tmp_path, capsys):
    prefix = str(tmp_path / "mub")
    run(capsys, "search", "mub", "--order", "4", "--target", "2",
        "--out", prefix)
    rc, out, _ = run(capsys, "construct", "thm51",
                     f"{prefix}_1.txt", f"{prefix}_2.txt", "--p", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["theorem"] == "thm51" and doc["lcd_verified"]
    assert doc["params"]["n"] == 8 and doc["params"]["K"] == [4]
    assert all(h["ok"] for h in doc["hypotheses"])


def test_construct_thm43(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, out, _ = run(capsys, "construct", "thm43", *k44_files(tmp_path),
                     "--p", "2", "--r", "2", "--indices", "1",
                     "-o", str(out_file))
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"] == {"n": 16, "size": 3, "d": 4, "K": [8], "q": 4}
    assert doc["lcd_verified"] and doc["enumeration_complete"]
    saved = json.loads(out_file.read_text())
    assert saved == doc
    code = fileio.code_from_doc(doc)
    assert len(code) == 3


def test_construct_cor45(tmp_path, capsys):
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n4 1\n")
    grp = tmp_path / "ident.txt"
    grp.write_text("1 2 3 4\n")
    rc, out, _ = run(capsys, "construct", "cor45", str(g), "--group", str(grp),
                     "--p", "2", "--indices", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"]["n"] == 8 and doc["params"]["size"] == 1


def test_construct_without_a_needed_option_is_exit_1(tmp_path, capsys):
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n4 1\n")
    for argv, missing in ((("thm42", *k44_files(tmp_path)), "index"),
                          (("cor45", str(g), "--indices", "1"), "group")):
        rc, out, err = run(capsys, "construct", *argv, "--p", "2")
        assert rc == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InvalidSpec"
        assert doc["message"] == f"{argv[0]} needs {missing}"


def test_construct_bad_partition_is_exit_2(capsys):
    a, b = (str(BUNDLED / name) for name in ("bush16_a.txt", "bush16_b.txt"))
    rc, out, err = run(capsys, "construct", "thm59", a, b, "--p", "2",
                       "--partition", "blocks:x")
    assert rc == 2
    assert out == "" and "blocks:SIZE" in err


def test_construct_thm59_document_is_pinned(tmp_path, monkeypatch, capsys):
    # the (192, 31, 4; 96) document, byte for byte, with the input files
    # named as from the root of a source checkout; it records their names
    data = tmp_path / "src" / "lcdsubspace" / "data"
    data.mkdir(parents=True)
    for name in ("bush16_a.txt", "bush16_b.txt"):
        shutil.copy(BUNDLED / name, data / name)
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "construct", "thm59", "src/lcdsubspace/data/bush16_a.txt",
                     "src/lcdsubspace/data/bush16_b.txt", "--p", "2", "-o", "code.json")
    assert rc == 0
    assert (tmp_path / "code.json").read_text(encoding="utf-8") == out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c0ea7cd1ff20fb6b4e12ccc4808bc4fa3cf419fd7025ed945a8c62495b3d876f")


def test_construct_hypothesis_failure_is_exit_1(tmp_path, capsys):
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n4 1\n")
    grp = tmp_path / "refl.txt"
    grp.write_text("1 4 3 2\n")
    rc, _, err = run(capsys, "construct", "cor45", str(g), "--group", str(grp),
                     "--p", "2", "--indices", "1")
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "HypothesisFailed"
    assert "equal length" in doc["message"]


def test_decode_and_simulate(tmp_path, capsys, f5):
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    code_path = tmp_path / "code.json"
    fileio.write_json(code_path, fileio.code_to_doc(code))
    recv = tmp_path / "recv.txt"
    fileio.write_matrix(recv, np.array([[1, 3]]), "fq", modulus=5)
    rc, out, _ = run(capsys, "decode", "--code", str(code_path),
                     "--received", str(recv), "--method", "both")
    assert rc == 0
    doc = json.loads(out)
    assert doc["naive"] == doc["projection"]
    assert doc["naive"]["status"] == "failure" and doc["naive"]["distance"] == 2

    rc, out, _ = run(capsys, "simulate", "--code", str(code_path),
                     "--erasures", "0", "--errors", "1",
                     "--trials", "300", "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["trials"] == 300 and doc["agreement"] == 300
    assert (doc["correct"], doc["failure"], doc["wrong"]) == (66, 234, 0)
    assert "naive_seconds" in doc["informational"]


def test_simulate_negative_seed_is_exit_1(tmp_path, capsys, f5):
    # once ended in numpy's ValueError traceback
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    code_path = tmp_path / "code.json"
    fileio.write_json(code_path, fileio.code_to_doc(code))
    rc, out, err = run(capsys, "simulate", "--code", str(code_path),
                       "--trials", "3", "--seed", "-1")
    assert rc == 1 and out == ""
    doc = json.loads(err)
    assert set(doc) == {"error", "message", "witness"}
    assert doc["error"] == "InvalidSpec" and "rng_seed" in doc["message"]


def test_decode_code_that_is_not_json_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    recv = tmp_path / "recv.txt"
    fileio.write_matrix(recv, np.array([[1, 0]]), "fq", modulus=2)
    rc, out, err = run(capsys, "decode", "--code", str(bad),
                       "--received", str(recv))
    assert rc == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "FileFormatError"
    assert set(doc) == {"error", "message", "witness"}


def test_oversized_and_non_integer_input_values_are_exit_1(tmp_path, capsys):
    # each once ended in an OverflowError or ValueError traceback, or was
    # read as a rounded integer
    good = {"field": {"p": 2, "r": 1}, "ambient": 2, "codewords": [[[1, 0]], [[0, 1]]]}
    recv = tmp_path / "recv.txt"
    fileio.write_matrix(recv, np.array([[1, 0]]), "fq", modulus=2)
    big = tmp_path / "big.txt"
    big.write_text("pm1 1 2\n1 99999999999999999999\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("1 99999999999999999999\n")
    runs = []
    for n, doc in enumerate([{**good, "codewords": [[[2 ** 70, 0]], [[0, 1]]]},
                             {**good, "codewords": [[[1.5, 0]], [[0, 1]]]},
                             {**good, "field": {"p": 2.9, "r": 1}}]):
        code = tmp_path / f"code{n}.json"
        code.write_text(json.dumps(doc))
        runs.append(("decode", "--code", str(code), "--received", str(recv)))
        runs.append(("simulate", "--code", str(code), "--trials", "2"))
    code = tmp_path / "good.json"
    code.write_text(json.dumps(good))
    runs += [("verify", "hadamard", str(big)),
             ("decode", "--code", str(code), "--received", str(big)),
             ("verify", "drg", str(edges)),
             ("construct", "cor45", str(edges), "--p", "2", "--indices", "1")]
    for argv in runs:
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "", argv
        doc = json.loads(err)
        assert set(doc) == {"error", "message", "witness"} and "Traceback" not in err
        assert doc["error"] in ("FileFormatError", "Disconnected"), (argv, doc)


def test_decode_received_over_a_huge_field_is_exit_1_at_once(tmp_path, capsys, f5):
    # the modulus is prime; trial division of it took seconds before the
    # order was compared with the largest field first
    code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
    code_path = tmp_path / "code.json"
    fileio.write_json(code_path, fileio.code_to_doc(code))
    recv = tmp_path / "recv.txt"
    recv.write_text("fq 1 2 100000000000031\n1 3\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, "decode", "--code", str(code_path), "--received", str(recv))
    assert time.perf_counter() - start < 0.5
    assert rc == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "FieldTooLarge" and set(doc) == {"error", "message", "witness"}


def test_screen(tmp_path, capsys):
    c4 = tmp_path / "c4g.txt"
    c4.write_text("1 2\n2 3\n3 4\n4 1\n")
    rc, out, _ = run(capsys, "screen", "--from-graph", str(c4), "--p", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["index_sets"] == [[1]]

    rc, out, _ = run(capsys, "screen", "--scheme", *k44_files(tmp_path),
                     "--p", "2")
    assert rc == 0
    assert [1] in json.loads(out)["index_sets"]
