import gc
import json
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from lcdsubspace import fileio
from lcdsubspace.codes import SubspaceCode
from lcdsubspace.drg import DISTANCE_ENTRIES
from lcdsubspace.errors import Disconnected, EncodingOutOfRange, FileFormatError, OrderTooLarge
from lcdsubspace.subspaces import span


def test_matrix_roundtrip(tmp_path):
    M = np.array([[1, -1], [-1, 1]])
    text = fileio.format_matrix_text(M, "pm1", comment="round trip")
    data = fileio.parse_matrix_text(text)
    assert data.kind == "pm1" and (data.matrix == M).all()
    path = tmp_path / "m.txt"
    fileio.write_matrix(path, M, "pm1")
    assert (fileio.read_matrix(path).matrix == M).all()


def test_matrix_kinds_and_validation():
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("")
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("weird 2 2\n1 1\n1 1\n")
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("pm1 2 2\n1 2\n1 1\n")
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("pm1 2 2\n1 1\n")  # missing a row
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("fq 1 2\n0 1\n")  # fq needs a modulus
    data = fileio.parse_matrix_text("fq 1 2 4\n0 3\n")
    assert data.modulus == 4
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_text("fq 1 2 4\n0 4\n")
    data = fileio.parse_matrix_text("# comment\nzpm1 2 2\n0 1\n-1 0\n")
    assert data.matrix.tolist() == [[0, 1], [-1, 0]]
    # entries and sizes past int64 are format errors, not OverflowError
    for text in ("int 1 2\n1 99999999999999999999\n", "int 1 1\n-9223372036854775809\n",
                 "int 0 99999999999999999999\n", "int 0 -1\n", "int -1 2\n"):
        with pytest.raises(FileFormatError):
            fileio.parse_matrix_text(text)
    assert fileio.parse_matrix_text("int 1 1\n9223372036854775807\n").matrix.tolist() == \
        [[2 ** 63 - 1]]
    assert fileio.parse_matrix_text("int 0 3\n").matrix.shape == (0, 3)


def test_matrix_over_field(f3):
    data = fileio.parse_matrix_text("int 1 3\n4 -1 9\n")
    f, M = fileio.matrix_over_field(data, f3)
    assert f is f3 and M.tolist() == [[1, 2, 0]]
    data = fileio.parse_matrix_text("fq 1 2 9\n8 3\n")
    f, M = fileio.matrix_over_field(data)
    assert f.q == 9 and M.tolist() == [[8, 3]]
    with pytest.raises(FileFormatError):
        fileio.matrix_over_field(fileio.parse_matrix_text("int 1 1\n1\n"))


def test_group_parsing():
    g = fileio.parse_group_text("2 3 1\n1 2 3\n")
    assert g.degree == 3
    assert tuple(g.generators[0]) == (1, 2, 0)
    with pytest.raises(FileFormatError):
        fileio.parse_group_text("1 1 2\n")
    with pytest.raises(FileFormatError):
        fileio.parse_group_text("")


def test_partition_parsing():
    part = fileio.parse_partition_text("1 2\n3 4\n")
    assert part.cells == ((0, 1), (2, 3))
    part = fileio.parse_partition_text("1 3\n2\n", size=3)
    assert part.cells == ((0, 2), (1,))
    with pytest.raises(FileFormatError):
        fileio.parse_partition_text("1 a\n")


def test_graph_edge_list_and_dense():
    g = fileio.parse_graph_text("1 2\n2 3\n3 1\n")
    assert g.n == 3
    assert g.adjacency.sum() == 6
    dense = fileio.parse_graph_text("int 3 3\n0 1 1\n1 0 1\n1 1 0\n")
    assert (dense.adjacency == g.adjacency).all()
    with pytest.raises(FileFormatError):
        fileio.parse_graph_text("1 2 3\n")
    with pytest.raises(FileFormatError):
        fileio.parse_graph_text("0 1\n")  # vertices are 1-based


def test_graph_edge_list_too_short_to_connect_fails_before_allocating(monkeypatch):
    # a connected graph on top vertices has at least top - 1 edges; a dense
    # 100000 x 100000 matrix would take 80 GB, so any large np.zeros fails
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape, dtype=object) <= 10 ** 6, f"asked to allocate {shape}"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    for text in ("1 99999999999999999999\n", "1 100000\n", "1 2\n3 4\n"):
        with pytest.raises(Disconnected):
            fileio.parse_graph_text(text)
    # a path has exactly top - 1 edges
    assert fileio.parse_graph_text("1 2\n2 3\n3 4\n").diameter == 3


def test_graph_edge_list_past_the_distance_cap_fails_before_allocating():
    # A_0 and A_1 of 2049 vertices hold 2 * 2049^2 > 2^23 entries, so the
    # 2049-vertex cycle raises before its 34 MB adjacency matrix is allocated
    n = 2049
    text = "".join(f"{i + 1} {(i + 1) % n + 1}\n" for i in range(n))
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge) as err:
            fileio.parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.witness == (n, 1) and peak < 4 << 20
    assert 2 * (n - 1) ** 2 <= DISTANCE_ENTRIES < 2 * n ** 2


# a valid text of each integer format, and what its reader reads from a text
_INTEGER_FORMATS = {
    "matrix": ("pm1 2 4\n1 -1 1 -1\n1 1 -1 -1\n",
               lambda text: fileio.parse_matrix_text(text).matrix.tolist()),
    "group": ("2 3 4 1\n1 2 3 4\n",
              lambda text: [list(g) for g in fileio.parse_group_text(text).generators]),
    "partition": ("1 4\n2 3\n", lambda text: fileio.parse_partition_text(text).cells),
    "edges": ("1 2\n2 3\n3 4\n4 1\n",
              lambda text: fileio.parse_graph_text(text).adjacency.tolist()),
}


def _loose_spelling(rng, token):
    """token as int() also reads it: with a digit separator, or in
    Arabic-Indic, Devanagari or fullwidth digits."""
    sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
    base = rng.choice([0x660, 0x966, 0xFF10, None])
    if base is None:
        return f"{sign}0_{digits}"
    return sign + "".join(chr(base + int(c)) for c in digits)


@pytest.mark.parametrize("fmt", sorted(_INTEGER_FORMATS))
def test_integer_tokens_are_ascii_digits_with_a_sign(fmt):
    # seeded: one token of a valid file spelt so that int() alone reads the
    # same value raises a FileFormatError naming its line; the same token
    # with a leading + reads as before
    text, parse = _INTEGER_FORMATS[fmt]
    rng = random.Random(37)
    lines = text.splitlines()
    for _ in range(40):
        row = rng.randrange(len(lines))
        tokens = lines[row].split()
        # the kind of a matrix header is a word, not an integer
        col = rng.randrange(1 if fmt == "matrix" and row == 0 else 0, len(tokens))
        loose = _loose_spelling(rng, tokens[col])
        assert int(loose) == int(tokens[col])
        bad = tokens[:col] + [loose] + tokens[col + 1:]
        with pytest.raises(FileFormatError) as err:
            parse("\n".join(lines[:row] + [" ".join(bad)] + lines[row + 1:]) + "\n")
        assert repr(" ".join(bad)) in str(err.value)
        if not tokens[col].startswith("-"):
            signed = tokens[:col] + ["+" + tokens[col]] + tokens[col + 1:]
            again = parse("\n".join(lines[:row] + [" ".join(signed)] + lines[row + 1:]) + "\n")
            assert again == parse(text)


def test_matrix_header_sizes_are_ascii_digits():
    # int() reads "1_0" as 10, and this header as one of ten rows
    with pytest.raises(FileFormatError, match="non-integer header fields in 'int 1_0 1'"):
        fileio.parse_matrix_text("int 1_0 1\n" + "1\n" * 10)
    with pytest.raises(FileFormatError, match="non-integer entry in row"):
        fileio.parse_matrix_text("int 1 1\n\u0661\u0662\n")
    assert fileio.parse_matrix_text("int +1 1\n-1\n").matrix.tolist() == [[-1]]


def test_code_json_roundtrip(tmp_path, f4):
    code = SubspaceCode([
        span(f4, 4, [[1, 0, 2, 0], [0, 1, 0, 3]]),
        span(f4, 4, [[1, 0, 0, 0], [0, 1, 1, 1]]),
    ])
    doc = fileio.code_to_doc(code)
    back = fileio.code_from_doc(doc)
    assert back == code
    path = tmp_path / "code.json"
    fileio.write_json(path, doc)
    assert fileio.read_code_json(path) == code
    # the document is plain JSON with stable key order
    text = path.read_text()
    assert json.loads(text)["field"] == {"p": 2, "r": 2}
    assert fileio.dumps(doc) == text


def test_code_doc_validation(tmp_path):
    with pytest.raises(FileFormatError):
        fileio.code_from_doc({"codewords": []})
    good = {"field": {"p": 2, "r": 1}, "ambient": 2, "codewords": [[[1, 0]]]}
    assert len(fileio.code_from_doc(good)) == 1
    with pytest.raises(EncodingOutOfRange):
        fileio.code_from_doc({**good, "codewords": [[[1, 0]], [[2, 1]]]})
    with pytest.raises(FileFormatError):  # ragged rows
        fileio.code_from_doc({**good, "codewords": [[[1, 0], [1]]]})
    # past int64, or not integers: int() and numpy would round 1.5 and 2.9
    # and read "1" and true as 1
    for bad in ([[[2 ** 70, 0]]], [[[-2 ** 63 - 1, 0]]], [[[1.5, 0]]], [[["1", 0]]],
                [[[True, 0]]], [[[1, 0]], [[None, 1]]], [5], [[5]], 5):
        with pytest.raises(FileFormatError):
            fileio.code_from_doc({**good, "codewords": bad})
    for field, ambient in (({"p": 2.9, "r": 1}, 2), ({"p": 2, "r": "1"}, 2),
                           ({"p": 2, "r": True}, 2), ({"p": 2, "r": 1}, 4.7),
                           ({"p": 2, "r": 1}, "2")):
        with pytest.raises(FileFormatError):
            fileio.code_from_doc({**good, "field": field, "ambient": ambient})
    # a codeword with no rows is the zero space
    code = fileio.code_from_doc({**good, "codewords": [[[1, 0]], []]})
    assert sorted(w.dim for w in code) == [0, 1]
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    with pytest.raises(FileFormatError):
        fileio.read_code_json(path)


def _to_lists(doc):
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _to_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_to_lists(v) for v in doc]
    return doc


def _random_array(rng):
    rows, cols = rng.choice([(0, 3), (0, 0), (4, 0), (1, 1), (3, 5), (2, 130)])
    if rng.random() < 0.2:  # a narrower integer type
        values, dtype = range(256), np.uint8
    else:
        values, dtype = [0, 1, 7, -3, -1000, 2 ** 62, -2 ** 63, 2 ** 63 - 1], np.int64
    A = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    return np.array(A, dtype=dtype).reshape(rows, cols)


# non-ASCII, escaped, and strings that begin like the writer's placeholders
_STRINGS = ["", "x", "codewords", "é", "日本", "a\"b\\c\n", "@", "@0", "@@1", "x\"@0", "@@@@@@2@@"]


def _random_leaf(rng):
    return rng.choice([_random_array(rng), rng.choice(_STRINGS), rng.randrange(-2 ** 70, 2 ** 70),
                       -5, 0, None, True, 1.5, [], {}])


def _random_doc(rng, depth):
    """A document with an integer array at the given depth of nesting in
    lists and dicts, beside random branches and leaves."""
    if depth == 0:
        return _random_array(rng)
    side = [_random_doc(rng, rng.randrange(depth)) if rng.random() < 0.5 else _random_leaf(rng)
            for _ in range(rng.randrange(4))]
    spine = _random_doc(rng, depth - 1)
    if rng.random() < 0.5:
        side.insert(rng.randrange(len(side) + 1), spine)
        return side
    return dict(zip(rng.sample(_STRINGS, len(side) + 1), side + [spine]))


def test_dumps_writes_arrays_as_json_writes_their_lists():
    rng = random.Random(606)
    for depth in range(5):
        for _ in range(40):
            doc = _random_doc(rng, depth)
            assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"
    # other arrays are written as their lists
    doc = {"v": np.arange(3), "x": np.ones((2, 2)) / 2, "b": np.eye(2, dtype=bool)}
    assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"
    with pytest.raises(TypeError):
        fileio.dumps({"s": {1, 2}})


def test_dumps_leaves_no_array_to_the_cyclic_collector():
    # json's indenting encoder keeps its default hook in a reference cycle;
    # the arrays a document held must still go once the caller drops them,
    # by reference counts alone, or each construct keeps its codewords alive
    # until a collection
    gc.disable()
    try:
        arrays = [np.arange(6).reshape(2, 3) % 10, np.array([[-1, 12]])]
        refs = [weakref.ref(A) for A in arrays]
        doc = {"a": arrays[0], "b": [arrays[1]]}
        pieces = list(fileio.dump_pieces(doc))
        assert "".join(pieces) == fileio.dumps(doc)
        del arrays, doc
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_dumps_writes_edge_case_arrays():
    rng = np.random.default_rng(707)
    # every digit count from 1 to 19 in both signs, int64 min and max
    edges = [0, 2 ** 63 - 1, -2 ** 63]
    for k in range(1, 20):
        edges += [10 ** (k - 1), min(10 ** k - 1, 2 ** 63 - 1)]
        edges += [-10 ** (k - 1), -min(10 ** k - 1, 2 ** 63 - 1)]
    arrays = [np.array([edges], dtype=np.int64), np.array(edges, dtype=np.int64)[:, None]]
    # tall and wide, with entries of every width in every row
    wide = rng.choice(edges, size=(40, 192))
    arrays += [wide, wide[::-1, ::3], (wide % 2).astype(np.uint8)]
    # uint64 entries at and past 2**63, up to 20 digits
    arrays.append(np.array([[2 ** 63, 2 ** 64 - 1, 10 ** 19, 0, 1],
                            [9, 10, 2 ** 63 - 1, 2 ** 63 + 1, 12345]], dtype=np.uint64))
    # every integer dtype at its extremes and around zero
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        values = [info.min, info.max, 0, 1, info.max // 3] + ([-1] if info.min else [])
        arrays.append(rng.choice(np.array(values, dtype=dtype), size=(3, 4)))
    for A in arrays:
        for doc in (A, {"a": A}, [[{"codewords": [A, A]}], 0]):
            assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"
    # no rows or no columns, at several depths of nesting
    for shape in ((0, 0), (0, 5), (3, 0), (1, 0)):
        doc = np.zeros(shape, dtype=np.int64)
        for depth in range(4):
            assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"
            doc = {"x": [doc, np.ones((1, 2), dtype=np.int32)], "y": doc}


def test_dumps_one_digit_arrays_and_their_neighbours():
    # nonnegative one-digit entries are laid out by the writer itself; a
    # single -1 or a single 10 sends the array to json as its list
    rng = np.random.default_rng(808)
    digits = rng.integers(0, 10, (7, 192))
    arrays = [np.zeros((3, 5), dtype=np.int64), np.ones((4, 192), dtype=np.int64), digits,
              np.arange(10)[None], np.arange(10)[:, None], np.array([[0]]), np.array([[9]])]
    for value, at in ((-1, (0, 0)), (-1, (6, 191)), (10, (3, 17)), (10, (0, 0))):
        A = digits.copy()
        A[at] = value
        arrays.append(A)
    for dtype in (np.int8, np.uint8, np.uint64):
        arrays += [digits.astype(dtype), np.ones((2, 3), dtype=dtype)]
        if np.iinfo(dtype).min:
            arrays.append(np.array([[0, -1, 9]], dtype=dtype))
        arrays.append(np.array([[10, 0], [1, 2]], dtype=dtype))
    arrays += [np.zeros(shape, dtype=np.int64) for shape in ((0, 4), (3, 0), (0, 0))]
    for A in arrays:
        for doc in (A, {"codewords": [A, A[::-1]], "n": 1}):
            assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"


def test_dumps_lays_out_only_one_digit_matrices(monkeypatch):
    # one document of a 0-9 matrix, a matrix with a 10, one with a -1, empty
    # arrays and a 1-D array: the writer lays out the first itself and
    # hands every other array to json as its list
    digits = np.random.default_rng(909).integers(0, 10, (5, 17))
    ten, minus = digits.copy(), digits.copy()
    ten[2, 3], minus[4, 16] = 10, -1
    doc = {"digits": digits, "ten": ten, "minus": minus,
           "empty": [np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)],
           "flat": np.arange(4), "nested": [{"digits": digits.astype(np.uint8)}]}
    seen = []

    def spy(A, pad):
        seen.append(A)
        return layout(A, pad)

    layout = fileio._matrix_text
    monkeypatch.setattr(fileio, "_matrix_text", spy)
    assert fileio.dumps(doc) == json.dumps(_to_lists(doc), sort_keys=True, indent=2) + "\n"
    assert len(seen) == 2
    assert all(A.ndim == 2 and A.size and A.min() >= 0 and A.max() <= 9 for A in seen)
    assert all(A.tolist() == digits.tolist() for A in seen)
