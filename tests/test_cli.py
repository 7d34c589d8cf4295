import hashlib
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import lcdsubspace
from lcdsubspace import fileio
from lcdsubspace.cli import main
from lcdsubspace.codes import SubspaceCode
from lcdsubspace.constructions import PIPELINE_KINDS, theorem_pipeline
from lcdsubspace.drg import PermutationGroup
from lcdsubspace.errors import HypothesisFailed, LcdError
from lcdsubspace.hadamard import sylvester
from lcdsubspace.schemes import EquitablePartition
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


def test_verify_drg_checks_once(tmp_path, capsys, monkeypatch):
    # the intersection array is read off the one check
    from lcdsubspace import cli, drg

    checks = []
    real = drg.check_distance_regular
    for module in (cli, drg):
        monkeypatch.setattr(module, "check_distance_regular",
                            lambda g: checks.append(g) or real(g))
    g = tmp_path / "c6.txt"
    g.write_text("".join(f"{u + 1} {(u + 1) % 6 + 1}\n" for u in range(6)))
    rc, out, _ = run(capsys, "verify", "drg", str(g))
    assert rc == 0 and len(checks) == 1
    assert json.loads(out)["intersection_array"] == {"b": [2, 1, 1], "c": [1, 1, 2]}


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


def test_successive_calls_give_identical_documents(tmp_path, capsys):
    # the parser is built once per process, so no call may leave state in it
    # for the next: the --seed-file list (an append action) included
    h = write_pm1(tmp_path / "h.txt", sylvester(2).entries)
    calls = [("verify", "hadamard", h),
             ("search", "mub", "--order", "4", "--target", "3", "--seed-file", h,
              "--seed-file", h, "--out", str(tmp_path / "twice")),
             ("search", "mub", "--order", "4", "--target", "2", "--out", str(tmp_path / "none")),
             ("search", "mub", "--order", "4", "--target", "2", "--seed-file", h,
              "--out", str(tmp_path / "once"))]
    first = [run(capsys, *argv) for argv in calls]
    assert [run(capsys, *argv) for argv in calls] == first
    for argv in calls:
        assert run(capsys, *argv) == run(capsys, *argv)
    # H and H are not unbiased; the set grown from the built-in seed, or from
    # H once, reaches its target
    assert first[1][0] == 1 and json.loads(first[1][2])["error"] == "NotUnbiased"
    assert [json.loads(first[k][1])["found"] for k in (2, 3)] == [2, 2]


def test_search_budget_exhausted_is_exit_1(tmp_path, capsys):
    rc, _, err = run(capsys, "search", "mub", "--order", "4", "--target", "2",
                     "--budget", "0", "--out", str(tmp_path / "mub"))
    assert rc == 1
    assert json.loads(err)["error"] == "BudgetExhausted"


def test_search_mub_order1_does_not_repeat_its_seed(tmp_path, capsys):
    # at order 1 a matrix is unbiased with itself; [[1]] and [[-1]] are all
    # there is
    rc, out, _ = run(capsys, "search", "mub", "--order", "1", "--target", "3",
                     "--out", str(tmp_path / "mub"))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["found"], doc["reached_target"], doc["proven_maximal"]) == (2, False, True)
    assert [fileio.read_matrix(f).matrix.tolist() for f in doc["files"]] == [[[1]], [[-1]]]


def test_fuzzed_matrix_files_never_end_in_a_traceback(tmp_path, capsys):
    # seeded small matrix files: good, bad and unknown header kinds, sizes 0
    # to 5, entries -2..2 and ragged rows.  verify and search exit 0, or 1
    # with an {error, message, witness} document, or 2
    rng = random.Random(21)
    for trial in range(120):
        rows = rng.randint(0, 5)
        cols = rows if rng.random() < 0.7 else rng.randint(0, 5)
        values = rng.choice([(-1, 1), (-1, 0, 1), (-2, -1, 0, 1, 2)])
        lines = [f"{rng.choice(['int', 'pm1', 'zpm1', 'garbage'])} {rows} {cols}"]
        for _ in range(rows):
            width = cols if rng.random() < 0.9 else rng.randint(0, 6)
            lines.append(" ".join(str(rng.choice(values)) for _ in range(width)))
        f = tmp_path / f"m{trial}.txt"
        f.write_text("\n".join(lines) + "\n")
        kind = rng.choice(["hadamard", "weighing"])
        search = ["search", "mub", "--order", str(rows), "--target", str(rng.randint(1, 3)),
                  "--kind", kind, "--seed-file", str(f), "--budget", "10000",
                  "--out", str(tmp_path / f"s{trial}")]
        if kind == "weighing" and rng.random() < 0.5:
            search += ["--weight", str(rng.randint(0, 5))]
        for argv in (["verify", "hadamard", str(f)], ["verify", "weighing", str(f)], search):
            rc, out, err = run(capsys, *argv)
            assert rc in (0, 1, 2), (argv, lines)
            if rc == 1:
                assert out == "" and set(json.loads(err)) == {"error", "message", "witness"}


# valid code documents over GF(2) and GF(9) for the fuzz test to break
_CODE_DOCS = [
    {"field": {"p": 2, "r": 1}, "ambient": 4,
     "codewords": [[[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 1, 1, 0], [0, 0, 0, 1]],
                   [[1, 1, 0, 1], [0, 0, 1, 0]]]},
    {"field": {"p": 3, "r": 2}, "ambient": 5,
     "codewords": [[[1, 0, 2, 6, 7], [0, 1, 6, 5, 8]], [[1, 0, 7, 4, 5], [0, 1, 3, 2, 6]],
                   [[1, 2, 3, 0, 5], [0, 0, 0, 1, 7]]]},
]


def _broken_code_doc(rng):
    """A copy of a valid code document with one seeded fault: ragged rows,
    an entry outside [0, q) or not an integer, a wrong ambient, a missing
    or bad field, or codewords of the wrong shape.  None of them is valid."""
    doc = json.loads(json.dumps(rng.choice(_CODE_DOCS)))
    q, n = doc["field"]["p"] ** doc["field"]["r"], doc["ambient"]
    words = doc["codewords"]
    word = rng.choice(words)
    row = rng.choice(word)
    at = rng.randrange(n)
    fault = rng.choice(["ragged", "range", "entry", "ambient", "field", "shape"])
    if fault == "ragged":
        if rng.random() < 0.5:
            row.pop(at)
        else:
            row.insert(at, rng.randrange(q))
    elif fault == "range":
        row[at] = rng.choice([q, q + rng.randrange(1, 100), -1, -rng.randrange(1, 2 ** 40)])
    elif fault == "entry":
        row[at] = rng.choice([1.0, 1.5, "1", True, False, None, [1], {"a": 1}, 2 ** 70])
    elif fault == "ambient":
        doc["ambient"] = rng.choice([n - 1, n + 1, 2 * n, 0, -1, -n, str(n), float(n),
                                     True, None, [n]])
    elif fault == "field":
        field = doc["field"]
        how = rng.randrange(5)
        if how == 0:
            del doc["field"]
        elif how == 1:
            del field[rng.choice(["p", "r"])]
        elif how == 2:
            field["p"] = rng.choice([4, 6, 1, 0, -2, 2.0, "2", None, True, 2 ** 64])
        elif how == 3:
            field["r"] = rng.choice([0, -1, 1.5, "1", None, 25, 2 ** 64])
        else:
            doc["field"] = rng.choice([2, "GF2", [2, 1], None])
    else:
        how = rng.randrange(5)
        if how == 0:
            doc["codewords"] = rng.choice([[], None, 3, "abc", {"a": 1}])
        elif how == 1:
            words[words.index(word)] = rng.choice([3, None, "ab", [1, 0], [[[1]]]])
        elif how == 2:
            word[word.index(row)] = rng.choice([3, None, "1011", {"a": 1}])
        elif how == 3:
            del doc["codewords"]
        else:
            return rng.choice([[], 3, "x", None, [doc]])
    return doc


def test_fuzzed_code_documents_never_end_in_a_traceback(tmp_path, capsys):
    # seeded faults in valid code documents, and truncated JSON text: the
    # reader raises an LcdError, and `simulate --code` exits 1 with an
    # {error, message, witness} document
    rng = random.Random(23)
    for trial in range(150):
        text = json.dumps(_broken_code_doc(rng))
        if trial % 10 == 0:
            text = text[:rng.randrange(len(text))]
        f = tmp_path / f"c{trial}.json"
        f.write_text(text)
        with pytest.raises(LcdError):
            fileio.read_code_json(f)
        rc, out, err = run(capsys, "simulate", "--code", str(f), "--erasures", "1",
                           "--errors", "1", "--trials", "5", "--seed", "1")
        assert rc == 1 and out == "", text
        assert set(json.loads(err)) == {"error", "message", "witness"}
    # F^0, whose only subspace, 0, has no dual basis to take
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"field": {"p": 2, "r": 1}, "ambient": 0, "codewords": [[]]}))
    rc, _, err = run(capsys, "simulate", "--code", str(f), "--erasures", "0", "--errors", "0",
                     "--trials", "5")
    assert rc == 1 and json.loads(err)["error"] == "FileFormatError"


def test_code_documents_are_capped_in_ambient(tmp_path, capsys):
    # a document of empty codewords names its ambient alone; past the cap
    # the LCD check would allocate an n x n dual basis
    doc = {"field": {"p": 2, "r": 1}, "ambient": fileio.MAX_AMBIENT, "codewords": [[]]}
    assert fileio.code_from_doc(doc).n == fileio.MAX_AMBIENT
    for n in (fileio.MAX_AMBIENT + 1, 1099511627776):
        f = tmp_path / f"wide{n}.json"
        f.write_text(json.dumps({**doc, "ambient": n}))
        with pytest.raises(LcdError):
            fileio.read_code_json(f)
        rc, out, err = run(capsys, "simulate", "--code", str(f), "--trials", "5")
        assert rc == 1 and out == ""
        err = json.loads(err)
        assert set(err) == {"error", "message", "witness"}
        assert (err["error"], err["witness"]) == ("FileFormatError", n)


def test_construct_partition_index_past_the_size_is_exit_1(tmp_path, capsys, monkeypatch):
    # the size is known before the file is read: an index past it must not
    # size an allocation (10**15 indices would take 7 PiB)
    full = np.full

    def small_full(shape, *args, **kwargs):
        assert np.prod(shape, dtype=object) <= 10 ** 6, f"asked to allocate {shape}"
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", small_full)
    part = tmp_path / "part.txt"
    part.write_text("1\n1000000000000000\n")
    rc, out, err = run(capsys, "construct", "thm43", *k44_files(tmp_path), "--p", "2",
                       "--indices", "1", "--partition", str(part))
    assert rc == 1 and out == ""
    err = json.loads(err)
    assert set(err) == {"error", "message", "witness"} and err["error"] == "IndexOutOfRange"
    with pytest.raises(LcdError):
        fileio.parse_partition_text(part.read_text())


def _exit_0_or_1_with_json(capsys, argv):
    """Run argv: it must exit 0 with its report, or 1 with an {error,
    message, witness} document on stderr or a failed check's report (ok
    false) on stdout.  Returns the exit status."""
    rc, out, err = run(capsys, *argv)
    assert rc in (0, 1), (argv, rc, err)
    if rc == 1 and err:
        assert out == "" and set(json.loads(err)) == {"error", "message", "witness"}, argv
    else:
        assert err == "" and (rc == 0 or json.loads(out)["ok"] is False), argv
    return rc


def _fuzzed_text(rng, lines, top):
    """Lines of integer tokens with up to two seeded faults each: a token
    replaced (by 0, -1, top + 1, a huge number or a non-integer), dropped or
    added, a line dropped, doubled or turned into a comment."""
    lines = [ln.split() for ln in lines]
    for _ in range(rng.randint(0, 2)):
        if not lines:
            break
        ln = rng.choice(lines)
        fault = rng.randrange(6)
        if fault == 0 and ln:
            ln[rng.randrange(len(ln))] = rng.choice(
                ["0", "-1", str(top + 1), str(10 ** 15), "9" * 30, "1.5", "x"])
        elif fault == 1 and ln:
            del ln[rng.randrange(len(ln))]
        elif fault == 2:
            ln.insert(rng.randrange(len(ln) + 1), str(rng.randint(1, top)))
        elif fault == 3:
            lines.remove(ln)
        elif fault == 4:
            lines.append(list(ln))
        else:
            ln.insert(0, "#")
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


def _seeded_graph(rng):
    """A small graph (at most 12 vertices): a cycle, path, star, complete or
    complete bipartite graph, the Petersen graph or the cube, as an edge
    list or, now and then, a dense int matrix."""
    shape = rng.randrange(7)
    v = rng.randint(2, 12)
    if shape == 0:
        # on C_4, cor45 builds a code: p = 2 divides its intersection numbers
        adj = oracles.cycle_adjacency(rng.choice([4, max(v, 3)]))
    elif shape in (1, 2):
        adj = [[int(abs(i - j) == 1 if shape == 1 else (i == 0) != (j == 0))
                for j in range(v)] for i in range(v)]
    elif shape == 3:
        adj = [[int(i != j) for j in range(v)] for i in range(v)]
    elif shape == 4:
        adj = oracles.complete_bipartite_adjacency(v // 2 + 1, (v + 1) // 2)
    else:
        adj = oracles.petersen_adjacency() if shape == 5 else oracles.cube_adjacency()
    if rng.random() < 0.2:
        return fileio.format_matrix_text(np.array(adj), "int").splitlines(), len(adj)
    edges = [f"{i + 1} {j + 1}" for i in range(len(adj)) for j in range(i) if adj[i][j]]
    return rng.sample(edges, len(edges)), len(adj)


def test_fuzzed_graph_and_group_files_never_end_in_a_traceback(tmp_path, capsys):
    # seeded small graphs and groups, most of them broken: the parsers
    # return or raise an LcdError, and every command that reads them exits 0
    # or 1 with a JSON document
    rng = random.Random(29)
    seen = set()
    for trial in range(60):
        lines, v = _seeded_graph(rng)
        text = _fuzzed_text(rng, lines, v)
        perm = list(range(1, v + 1))
        gens = [" ".join(map(str, perm))]
        if rng.random() < 0.5:
            gens.append(" ".join(map(str, perm[1:] + perm[:1])))   # a rotation
        if rng.random() < 0.3:
            rng.shuffle(perm)
            gens.append(" ".join(map(str, perm)))
        group = _fuzzed_text(rng, gens, v)
        for parse, txt in ((fileio.parse_graph_text, text), (fileio.parse_group_text, group)):
            try:
                parse(txt)
            except LcdError:
                pass
        g, grp = tmp_path / f"g{trial}.txt", tmp_path / f"grp{trial}.txt"
        g.write_text(text)
        grp.write_text(group)
        for argv in (("verify", "drg", str(g)), ("screen", "--from-graph", str(g), "--p", "2"),
                     ("construct", "cor45", str(g), "--group", str(grp), "--p", "2",
                      "--indices", "1")):
            seen.add((argv[0], _exit_0_or_1_with_json(capsys, argv)))
    # the seeds reach both outcomes of every command
    assert seen == {(cmd, rc) for cmd in ("verify", "screen", "construct") for rc in (0, 1)}


def test_fuzzed_partition_files_never_end_in_a_traceback(tmp_path, capsys):
    # seeded partitions of the 8 vertices of K_{4,4}, most of them broken,
    # through the parser (with and without the size) and the two commands
    # that read a partition file
    rng = random.Random(31)
    files = k44_files(tmp_path)
    cells = [[[i] for i in range(1, 9)], [[1, 2, 3, 4], [5, 6, 7, 8]],
             [[1, 5], [2, 6], [3, 7], [4, 8]], [list(range(1, 9))]]
    seen = set()
    for trial in range(40):
        points = list(range(1, 9))
        rng.shuffle(points)
        cut = sorted(rng.sample(range(1, 8), rng.randint(0, 3)))
        shuffled = [points[a:b] for a, b in zip([0] + cut, cut + [8])]
        lines = [" ".join(map(str, c)) for c in rng.choice(cells + [shuffled])]
        text = _fuzzed_text(rng, lines, 8)
        for size in (None, 8):
            try:
                fileio.parse_partition_text(text, size)
            except LcdError:
                pass
        part = tmp_path / f"p{trial}.txt"
        part.write_text(text)
        for argv in (("verify", "partition", str(part), *files),
                     ("construct", "thm43", *files, "--partition", str(part), "--p", "2",
                      "--indices", "1")):
            seen.add((argv[0], _exit_0_or_1_with_json(capsys, argv)))
    assert seen == {(cmd, rc) for cmd in ("verify", "construct") for rc in (0, 1)}


def test_verify_drg_caps_the_distance_matrices(tmp_path, capsys):
    # a 400-vertex cycle's distance matrices would hold 32 million entries;
    # a 200-vertex cycle's 4 million are within the cap
    for n, rc_want in ((400, 1), (200, 0)):
        g = tmp_path / f"c{n}.txt"
        g.write_text("".join(f"{i + 1} {(i + 1) % n + 1}\n" for i in range(n)))
        rc, out, err = run(capsys, "verify", "drg", str(g))
        assert rc == rc_want, err
        if rc:
            doc = json.loads(err)
            assert (doc["error"], doc["witness"]) == ("OrderTooLarge", [400, 52])
        else:
            assert json.loads(out)["diameter"] == 100


def test_loose_integer_tokens_are_exit_1(tmp_path, capsys):
    # "1_0" and Arabic-Indic digits, which int() reads as 10 and 12, in each
    # integer format the commands read: a FileFormatError naming the line
    files = k44_files(tmp_path)
    texts = {"h.txt": "pm1 2 2\n1 1\n1 -1_0\n", "p.txt": "1 2 3 4\n5 6 7 \u0668\n",
             "grp.txt": "1 2 3 \u0664\n", "c4.txt": "1 2\n2 3\n3 4\n4 1_0\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    c4 = str(tmp_path / "c4.txt")
    (tmp_path / "ok.txt").write_text("1 2\n2 3\n3 4\n4 1\n")
    for argv, line in (
            (("verify", "hadamard", str(tmp_path / "h.txt")), "1 -1_0"),
            (("verify", "partition", str(tmp_path / "p.txt"), *files), "5 6 7 \u0668"),
            (("construct", "cor45", str(tmp_path / "ok.txt"), "--group",
              str(tmp_path / "grp.txt"), "--p", "2", "--indices", "1"), "1 2 3 \u0664"),
            (("verify", "drg", c4), "4 1_0")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "", argv
        doc = json.loads(err)
        assert set(doc) == {"error", "message", "witness"}
        assert doc["error"] == "FileFormatError" and repr(line) in doc["message"], argv


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


def _parity_case(kind, tmp_path, request):
    """(files, options) of `construct kind` and the theorem_pipeline inputs
    (r included) they stand for, from the session fixtures written to files."""
    fixture = request.getfixturevalue
    if kind in ("thm42", "thm43"):
        scheme = fixture("k44_scheme")
        files = []
        for i, A in enumerate(scheme.mats[1:], 1):
            fileio.write_matrix(tmp_path / f"a{i}.txt", A, "int")
            files.append(str(tmp_path / f"a{i}.txt"))
        inputs = {"scheme": scheme, "partition": EquitablePartition.singletons(scheme.size)}
        if kind == "thm42":
            return files, ["--index", "1"], {**inputs, "index": 1}
        return files, ["--r", "2", "--indices", "1"], {**inputs, "r": 2, "indices": [1]}
    if kind == "cor45":
        c4 = fixture("c4")
        fileio.write_matrix(tmp_path / "c4.txt", c4.adjacency, "int")
        (tmp_path / "ident.txt").write_text("1 2 3 4\n")
        return ([str(tmp_path / "c4.txt")],
                ["--group", str(tmp_path / "ident.txt"), "--indices", "1"],
                {"graph": c4, "group": PermutationGroup(4, [(0, 1, 2, 3)]), "indices": [1]})
    if kind in ("thm51", "thm52", "thm54", "thm55"):
        weighing = kind in ("thm52", "thm55")
        mats = [H.entries for H in fixture("order4_pair")]
        files = []
        for i, M in enumerate(mats):
            fileio.write_matrix(tmp_path / f"h{i}.txt", M, "zpm1" if weighing else "pm1")
            files.append(str(tmp_path / f"h{i}.txt"))
        options, inputs = [], {"matrices": mats}
        if weighing:
            options, inputs["weight"] = ["--weight", "4"], 4
        if kind in ("thm54", "thm55"):
            inputs["partition"] = EquitablePartition.singletons(4)
        return files, options, inputs
    # the Bush pair: 16 x 3 points, doubled for the 8-class scheme of thm59
    files = [str(BUNDLED / name) for name in ("bush16_a.txt", "bush16_b.txt")]
    points = 96 if kind == "thm59" else 48
    return files, [], {"matrices": list(fixture("bush_pair")),
                       "partition": EquitablePartition.singletons(points)}


@pytest.mark.parametrize("kind", PIPELINE_KINDS)
def test_construct_matches_theorem_pipeline(kind, tmp_path, capsys, request):
    # the CLI loads each kind's files and sizes its default partition itself;
    # it must reach the same report, or the same failed hypothesis
    files, options, inputs = _parity_case(kind, tmp_path, request)
    rc, out, err = run(capsys, "construct", kind, *files, "--p", "2", *options)
    try:
        rep = theorem_pipeline(kind, p=2, **inputs)
    except HypothesisFailed as exc:
        assert rc == 1 and out == ""
        doc = json.loads(err)
        assert (doc["error"], doc["message"]) == ("HypothesisFailed", str(exc))
        return
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["theorem"] == rep.kind == kind
    assert [(h["name"], h["ok"]) for h in doc["hypotheses"]] == list(rep.hypotheses)
    if kind == "thm42":
        assert (doc["t"], doc["alpha"], doc["generator"]) == (rep.t, rep.alpha,
                                                              rep.generator.tolist())
        return
    prm = rep.params
    assert doc["params"] == {"n": prm.n, "size": prm.size, "d": prm.d,
                             "K": list(prm.dims), "q": prm.q}


# the construct document of each kind on its _parity_case inputs at p = 2,
# as the sha256 of its sorted-key JSON without the input file names; thm56
# and thm58 fail "p divides n/2" there and pin their error message instead
_GOLDEN = {
    "thm42": "8debf9d3cbe773d0d3c908d05f9284bd507f41e795c1c6cc6c36a84b75e9b8ed",
    "thm43": "a84c01a2bdeddadc8b9910a23d23016964d8b6c912e0ce70812833fbd77cd128",
    "cor45": "1d5f74a3f657281086ee2b57564fa5fc572b9633ad4ecae7eb63aa403743bf7d",
    "thm51": "6cc6b4919a51d1c11ac2f6b88bd17007cac3bd40bdcf7571fa4b199182cdc95f",
    "thm52": "ed092331c4198cf918f33cf05e9d3a7c8d6894bc3cf061b90255d473948bc204",
    "thm54": "4e56316c694cca34e5565cc751d06756c00ba148fa2576139a578817ead2f4d2",
    "thm55": "abaa7a9f517fcd56f0e00789edb4ce5c767804be8f1056278a1f6d2e5d9e3fc4",
    "thm56": "hypothesis failed: p divides n/2",
    "thm58": "hypothesis failed: p divides n/2",
    "thm59": "f5208cdfdc469875331a2f2551033b120baca15eeea8bce4639994387940f6a3",
}


@pytest.mark.parametrize("kind", PIPELINE_KINDS)
def test_construct_document_is_golden(kind, tmp_path, capsys, request):
    files, options, _ = _parity_case(kind, tmp_path, request)
    rc, out, err = run(capsys, "construct", kind, *files, "--p", "2", *options)
    if rc:
        assert rc == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "HypothesisFailed"
        assert doc["message"] == _GOLDEN[kind]
        return
    doc = json.loads(out)
    assert doc["informational"]["source"].pop("files") == files
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN[kind]


def test_construct_without_a_needed_option_is_exit_1(tmp_path, capsys):
    # and with an option the kind neither needs nor takes
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n4 1\n")
    grp = tmp_path / "g.txt"
    grp.write_text("1 2 3 4\n")
    bush = [str(BUNDLED / name) for name in ("bush16_a.txt", "bush16_b.txt")]
    for argv, message in (
            (("thm42", *k44_files(tmp_path)), "thm42 needs index"),
            (("cor45", str(g), "--indices", "1"), "cor45 needs group"),
            (("cor45", str(g), "--group", str(grp), "--indices", "1",
              "--partition", "blocks:2"), "cor45 takes no partition"),
            (("thm59", *bush, "--group", str(grp)), "thm59 takes no group")):
        rc, out, err = run(capsys, "construct", *argv, "--p", "2")
        assert rc == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InvalidSpec"
        assert doc["message"] == message


def test_graph_commands_read_exactly_one_file(tmp_path, capsys):
    # a second file, even a missing one, is not silently ignored
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n4 1\n")
    grp = tmp_path / "ident.txt"
    grp.write_text("1 2 3 4\n")
    missing = str(tmp_path / "nonexistent.txt")
    for argv in (("construct", "cor45", str(g), missing, "--group", str(grp),
                  "--indices", "1", "--p", "2"),
                 ("verify", "drg", str(g), missing),
                 ("verify", "drg", str(g), str(g))):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InvalidSpec"
        assert doc["message"] == "a graph is read from one file, got 2"
        assert "witness" in doc


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
    # the tallies of the replay through oracles.channel_trial, as
    # test_simulator's frozen regression pins them
    assert (doc["correct"], doc["failure"], doc["wrong"]) == (47, 253, 0)
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
