"""Text file formats: matrices, permutation groups, partitions, code JSON.

Matrix files carry a header line "kind rows cols [modulus]" with kind one of
int, pm1, zpm1, fq, followed by whitespace-separated integer rows.  Blank
lines and '#' comments are ignored everywhere.  Group and partition files
use 1-based indices; everything in memory is 0-based.

JSON documents are written by ``dumps``, or piece by piece by
``dump_pieces``, as ``json.dumps(doc, sort_keys=True, indent=2)`` would write
them with every ndarray replaced by its ``tolist()``, byte for byte.
``dumps`` writes nonempty 2-D integer arrays of entries 0-9
itself, as are the codeword bases of every code document over GF(q) with
q <= 10: numpy lays out every entry of such an array, one digit each, in
one byte buffer, decoded once, and the result is spliced into the text
``json.dumps`` writes for the rest of the document.  json's indenting encoder
is pure Python, and the 571,392 basis entries of the (192, 31, 4; 96) code
would otherwise pass through it, or through ``str``, one by one.  Every
other array is written as its ``tolist()``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import Disconnected, FileFormatError
from .gf import field_from_order, field_new
from .linalg import as_int_matrix
from .schemes import EquitablePartition
from .subspaces import Subspace

_KINDS = ("int", "pm1", "zpm1", "fq")
# the widest ambient space a code document may name.  The LCD check of a code
# takes a dense dual basis of up to n x n entries, 8 MiB of int64 at the cap;
# the widest code the pipelines build, the (192, 31, 4; 96) code of thm59 on
# the bundled order-16 Bush pair, has n = 192
MAX_AMBIENT = 1024


# an integer token is ASCII digits with an optional sign: int() alone would
# also read "1_0" as 10 and non-ASCII digits such as "\u0661\u0662" as 12
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ints(tokens, what, line):
    """The integer tokens of a line as ints; any other token raises."""
    if not all(_INTEGER.fullmatch(v) for v in tokens):
        raise FileFormatError(f"non-integer {what} in {line!r}")
    return [int(v) for v in tokens]


def _content_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


@dataclass(frozen=True)
class MatrixData:
    kind: str
    matrix: np.ndarray
    modulus: int | None = None


def parse_matrix_text(text):
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty matrix file")
    head = lines[0].split()
    if len(head) not in (3, 4) or head[0] not in _KINDS:
        raise FileFormatError(
            f"bad header {lines[0]!r}: expected 'kind rows cols [modulus]'")
    kind = head[0]
    rows, cols, *modulus = _ints(head[1:], "header fields", lines[0])
    modulus = modulus[0] if modulus else None
    if min(rows, cols) < 0:
        raise FileFormatError(f"negative matrix size in {lines[0]!r}")
    if kind == "fq" and modulus is None:
        raise FileFormatError("kind fq requires a modulus in the header")
    if len(lines) - 1 != rows:
        raise FileFormatError(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        row = _ints(ln.split(), "entry in row", ln)
        if len(row) != cols:
            raise FileFormatError(f"expected {cols} columns, row has {len(row)}")
        data.append(row)
    try:
        M = np.array(data, dtype=np.int64).reshape(rows, cols)
    except (OverflowError, ValueError):
        raise FileFormatError("matrix entries and sizes must fit in 64-bit integers")
    if kind == "pm1" and not ((M == 1) | (M == -1)).all():
        raise FileFormatError("pm1 entries must be +-1")
    if kind == "zpm1" and not ((M >= -1) & (M <= 1)).all():
        raise FileFormatError("zpm1 entries must be in {-1,0,1}")
    if kind == "fq" and ((M < 0) | (M >= modulus)).any():
        raise FileFormatError(f"fq entries must lie in [0, {modulus})")
    return MatrixData(kind, M, modulus)


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def format_matrix_text(matrix, kind, modulus=None, comment=None):
    M = as_int_matrix(matrix)
    if kind not in _KINDS:
        raise FileFormatError(f"unknown kind {kind!r}")
    head = f"{kind} {M.shape[0]} {M.shape[1]}"
    if kind == "fq":
        if modulus is None:
            raise FileFormatError("kind fq requires a modulus")
        head += f" {modulus}"
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(head)
    for row in M.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def write_matrix(path, matrix, kind, modulus=None, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(matrix, kind, modulus, comment))
    return path


def parse_group_text(text):
    """One generator per line: the images g(1) ... g(n), 1-based."""
    from .drg import PermutationGroup

    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty group file")
    gens = []
    degree = None
    for ln in lines:
        images = _ints(ln.split(), "image", ln)
        if degree is None:
            degree = len(images)
        elif len(images) != degree:
            raise FileFormatError("generators have different lengths")
        if sorted(images) != list(range(1, degree + 1)):
            raise FileFormatError(f"line {ln!r} is not a permutation of 1..{degree}")
        gens.append([v - 1 for v in images])
    return PermutationGroup(degree, gens)


def read_group(path):
    with open(path, encoding="utf-8") as fh:
        return parse_group_text(fh.read())


def parse_partition_text(text, size=None):
    """One cell per line, 1-based indices; cells must cover 1..size exactly.

    Without a size, it is the number of indices in the file, which is n for
    every partition of 1..n: an index past it is out of range, and rejected
    before anything of its size is allocated.
    """
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty partition file")
    cells = [[v - 1 for v in _ints(ln.split(), "index", ln)] for ln in lines]
    if size is None:
        size = sum(map(len, cells))
    return EquitablePartition(cells, size)


def read_partition(path, size=None):
    with open(path, encoding="utf-8") as fh:
        return parse_partition_text(fh.read(), size)


def parse_graph_text(text):
    """Dense matrix file with an int header, or an edge list of 1-based pairs."""
    from .drg import Graph, _check_entries

    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty graph file")
    if lines[0].split()[0] in _KINDS:
        return Graph(parse_matrix_text(text).matrix)
    edges = []
    top = 0
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise FileFormatError(f"edge line {ln!r} needs exactly two vertices")
        u, v = (x - 1 for x in _ints(parts, "vertex", ln))
        if u < 0 or v < 0:
            raise FileFormatError("vertices are 1-based")
        edges.append((u, v))
        top = max(top, u + 1, v + 1)
    # a connected graph, as Graph requires, on top vertices has at least
    # top - 1 edges, and distance matrices A_0 and A_1 within the cap: both
    # known before the top x top matrix is allocated
    if top > len(edges) + 1:
        raise Disconnected(f"{top} vertices need at least {top - 1} edges, "
                           f"the list has {len(edges)}", witness=(top, len(edges)))
    _check_entries(top, 1)
    A = np.zeros((top, top), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    return Graph(A)


def read_graph(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def code_to_doc(code):
    """JSON-ready description of a subspace code: field, ambient, rref rows."""
    f = code.field
    return {
        "field": {"p": f.p, "r": f.r},
        "ambient": code.n,
        "codewords": [w.basis for w in code],
    }


def code_from_doc(doc):
    from .codes import SubspaceCode

    try:
        p, r = doc["field"]["p"], doc["field"]["r"]
        n = doc["ambient"] if "ambient" in doc else doc["params"]["n"]
        words = list(doc["codewords"])
    except (KeyError, TypeError):
        raise FileFormatError("code document needs field{p,r}, ambient, codewords")
    # bool is an int to Python, and int() would round 2.9 and read "2"
    if {type(p), type(r), type(n)} != {int}:
        raise FileFormatError(
            f"field p, r and ambient must be integers, got {p!r}, {r!r}, {n!r}")
    # F^0 has no subspace but 0, and no dual basis to take; past the cap a
    # document of empty codewords would have the LCD check allocate its
    # n x n dual basis
    if not 1 <= n <= MAX_AMBIENT:
        raise FileFormatError(f"ambient must lie in [1, {MAX_AMBIENT}], got {n}", witness=n)
    f = field_new(p, r)
    subs = []
    for rows in words:
        try:
            kinds = set(map(type, chain.from_iterable(rows)))
            M = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        except OverflowError:
            raise FileFormatError("codeword entries must fit in 64-bit integers")
        except (TypeError, ValueError):
            raise FileFormatError(f"codeword rows must be {n} integers each")
        # the conversion rounds 1.5 and reads "1" and True as 1
        if any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds):
            raise FileFormatError(f"codeword entries must be integers, got "
                                  f"{', '.join(sorted(k.__name__ for k in kinds))}")
        subs.append(Subspace(f, n, M))
    return SubspaceCode(subs)


def read_code_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not a JSON document ({exc})")
    return code_from_doc(doc)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(dump_pieces(doc))
    return path


def dumps(doc):
    """JSON text of doc with sorted keys, indent 2 and a final newline."""
    return "".join(dump_pieces(doc))


def dump_pieces(doc):
    """The text of dumps(doc) in pieces, in order, so that a writer need not
    hold the whole document at once.

    json.dumps writes the document with a placeholder string in place of
    each nonempty 2-D integer array whose entries all lie in 0-9 (other
    arrays become lists), and _matrix_text writes each such array, spliced
    in after.  A placeholder is a run of '@' and the array's index.  The
    run is lengthened until a quote followed by it occurs in the text once
    per placeholder, so that no string of the document can pass for one.
    """
    mark, matrices = "@", []

    def placeholder(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if obj.ndim != 2 or obj.dtype.kind not in "iu" or not obj.size \
                or obj.min() < 0 or obj.max() > 9:
            return obj.tolist()
        matrices.append(obj)
        return f"{mark}{len(matrices) - 1}"

    while True:
        text = json.dumps(doc, sort_keys=True, indent=2, default=placeholder)
        if text.count('"' + mark) == len(matrices):
            break
        mark += "@"
        matrices.clear()
    # json's indenting encoder holds placeholder in a reference cycle, which
    # only the cyclic collector frees: the arrays must not stay reachable
    # from it, or each document's arrays outlive the call until a collection
    arrays, matrices = matrices, None

    at = 0
    for m in re.finditer(f'"{mark}(\\d+)"', text):
        # the array opens where its placeholder stood, on a line indented by
        # the spaces that begin it
        line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        yield text[at:m.start()]
        yield _matrix_text(arrays[int(m.group(1))], pad)
        at = m.end()
    yield text[at:] + "\n"


def _matrix_text(A, pad):
    """A nonempty 2-D array of entries 0-9 laid out as json.dumps(indent=2)
    lays out its list on a line that begins with pad (a newline and the
    spaces of its indent).

    Each entry fills a slot of bytes: its separator ("[" opening a row, ","
    after an entry, then the newline and indent) and its digit.  The slots
    are decoded at once, cut into rows at equal steps, and each row closed.
    """
    rows, cols = A.shape
    sep = ("," + pad + "    ").encode("ascii")
    slots = np.empty((rows, cols, len(sep) + 1), dtype=np.uint8)
    slots[:, :, :-1] = np.frombuffer(sep, dtype=np.uint8)
    slots[:, 0, 0] = ord("[")
    slots[:, :, -1] = A + ord("0")
    text = slots.tobytes().decode("ascii")
    step = cols * slots.shape[2]
    inner = pad + "  "
    close = pad + "  ]"
    return "[" + inner + ("," + inner).join(
        text[k:k + step] + close for k in range(0, len(text), step)) + pad + "]"


def matrix_over_field(data, field=None):
    """Interpret MatrixData over a finite field, reducing int matrices mod p."""
    if data.kind == "fq":
        f = field_from_order(data.modulus)
        if field is not None and f != field:
            raise FileFormatError(
                f"file modulus {data.modulus} does not match field of order {field.q}")
        return f, data.matrix
    if field is None:
        raise FileFormatError("a field is required to interpret this matrix")
    return field, data.matrix % field.p
