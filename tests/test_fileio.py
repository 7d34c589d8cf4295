import json

import numpy as np
import pytest

from lcdsubspace import fileio
from lcdsubspace.codes import SubspaceCode
from lcdsubspace.errors import EncodingOutOfRange, FileFormatError
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
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    with pytest.raises(FileFormatError):
        fileio.read_code_json(path)
