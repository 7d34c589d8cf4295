"""Command line surface.

Subcommands: verify, search, construct, decode, simulate, screen.  Reports
are deterministic JSON on stdout (timings quarantined under "informational");
failures exit 1 with an {error, message, witness} JSON object on stderr;
usage errors exit 2.  Text files use 1-based indices, the library is 0-based,
and all conversion happens here or in fileio.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from functools import cache

import numpy as np

from . import fileio
from .codes import decode_naive, decode_projection
from .constructions import (
    ENUMERATION_CAP,
    PIPELINE_KINDS,
    PIPELINES,
    SAMPLE_SIZE,
    ClassicalCodeReport,
    theorem_pipeline,
)
from .drg import check_distance_regular, scheme_from_drg
from .errors import BudgetExhausted, InvalidSpec, LcdError
from .gf import field_new
from .hadamard import UnbiasedSet, search_unbiased_extension, sylvester, validate
from .schemes import (
    EquitablePartition,
    divisibility_screen,
    scheme_from_matrices,
    verify_equitable,
)
from .simulator import ChannelSpec, run_experiment
from .subspaces import Subspace


def _jsonable(obj):
    # arrays are left to fileio.dumps, which writes integer matrices itself
    if obj is None or isinstance(obj, (bool, int, float, str, np.ndarray)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


def _emit(doc, out=None):
    """Write the document to stdout, and to the file out if given, piece by
    piece, so that no second copy of a large document is held."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext() as fh:
        for piece in fileio.dump_pieces(_jsonable(doc)):
            sys.stdout.write(piece)
            if fh:
                fh.write(piece)


def _load_int_matrices(paths):
    return [fileio.read_matrix(p).matrix for p in paths]


def _load_scheme(paths):
    """Relation matrices from files; the identity class is prepended when the
    first matrix is not I (relation matrices have zero diagonals)."""
    mats = _load_int_matrices(paths)
    size = mats[0].shape[0]
    ident = np.eye(size, dtype=np.int64)
    if not np.array_equal(mats[0], ident):
        mats = [ident] + mats
    return scheme_from_matrices(mats)


def _load_graph(paths):
    """The graph of an edge-list file; a graph is read from exactly one."""
    if len(paths) != 1:
        raise InvalidSpec(f"a graph is read from one file, got {len(paths)}")
    return fileio.read_graph(paths[0])


def _partition_arg(text):
    """argparse type of --partition: a 'blocks:SIZE' value needs an integer."""
    if text.startswith("blocks:"):
        try:
            int(text[len("blocks:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r}: expected 'blocks:SIZE' with an integer SIZE")
    return text


def _indices_arg(text):
    """argparse type of --indices: integers separated by commas or spaces."""
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected integers separated by commas, e.g. 1,2")


def _resolve_partition(arg, size):
    if arg is None or arg == "singletons":
        return EquitablePartition.singletons(size)
    if arg.startswith("blocks:"):
        return EquitablePartition.contiguous_blocks(size, int(arg[len("blocks:"):]))
    # read against the size it must cover, so an index past it is rejected
    # before the partition's arrays are allocated
    return fileio.read_partition(arg, size)


# --- verify ---


def _cmd_verify(args):
    files = args.files
    if not files:
        raise InvalidSpec("verify needs at least one file")
    if args.what in ("hadamard", "weighing"):
        mats = [validate(M, args.what, args.weight) for M in _load_int_matrices(files)]
        doc = {"ok": True, "kind": args.what, "order": mats[0].order}
        if args.what == "weighing":
            doc["weight"] = mats[0].weight
        doc["files"] = files
        if len(mats) > 1:
            doc["pairwise_unbiased"] = True
            doc["m"] = len(UnbiasedSet(mats, args.what))
    elif args.what == "scheme":
        scheme = _load_scheme(files)
        doc = {"ok": True, "kind": "scheme", "size": scheme.size,
               "classes": scheme.classes,
               "valencies": [int(v) for v in scheme.valencies]}
    elif args.what == "drg":
        graph = _load_graph(files)
        check = check_distance_regular(graph)
        if not check.ok:
            _emit({"ok": False, "kind": "drg", "witness": check.witness})
            return 1
        arr = check.array
        doc = {"ok": True, "kind": "drg", "vertices": graph.n,
               "diameter": arr.diameter,
               "intersection_array": {"b": list(arr.b), "c": list(arr.c)},
               "valencies": [int(v) for v in arr.valencies]}
    elif args.what == "partition":
        if len(files) < 2:
            raise InvalidSpec("verify partition needs a partition file and "
                              "at least one matrix file")
        mats = _load_int_matrices(files[1:])
        part = fileio.read_partition(files[0], size=mats[0].shape[0])
        check = verify_equitable(part, mats)
        if not check.ok:
            _emit({"ok": False, "kind": "partition", "witness": check.witness})
            return 1
        doc = {"ok": True, "kind": "partition", "cells": part.t,
               "cell_sizes": list(part.cell_sizes),
               "equal_cells": part.equal_cells}
    else:  # pragma: no cover
        raise InvalidSpec(args.what)
    _emit(doc)
    return 0


# --- search ---


def _seed_set(args):
    if args.seed_file:
        mats = _load_int_matrices(args.seed_file)
        uset = UnbiasedSet(mats, args.kind, args.weight)
        if uset.order != args.order:
            raise InvalidSpec(
                f"seed matrices have order {uset.order}, expected {args.order}")
        return uset
    if args.kind == "weighing":
        raise InvalidSpec("weighing search needs at least one --seed-file")
    n = args.order
    if n & (n - 1) == 0 and n <= 256:
        return UnbiasedSet([sylvester(n.bit_length() - 1)], "hadamard")
    raise InvalidSpec(f"no built-in seed for order {n}; pass --seed-file")


def _write_set(uset, prefix):
    kind = "pm1" if uset.kind == "hadamard" else "zpm1"
    files = []
    for i, M in enumerate(uset):
        path = f"{prefix}_{i + 1}.txt"
        fileio.write_matrix(path, M.entries, kind)
        files.append(path)
    return files


def _cmd_search(args):
    uset = _seed_set(args)
    nodes = 0
    budget = args.budget
    proven = False
    reason = None
    try:
        while len(uset) < args.target:
            out = search_unbiased_extension(uset, budget=budget)
            nodes += out.nodes
            budget -= out.nodes
            if out.found is None:
                proven = out.proven_exhausted
                reason = out.reason
                break
            uset = out.found
    except BudgetExhausted:
        _write_set(uset, args.out)
        raise
    files = _write_set(uset, args.out)
    _emit({"kind": uset.kind, "order": uset.order, "target": args.target,
           "found": len(uset), "reached_target": len(uset) >= args.target,
           "proven_maximal": proven, "reason": reason, "files": files,
           "informational": {"nodes": nodes}})
    return 0


# --- construct ---


def _construction_doc(rep, inputs):
    code_doc = fileio.code_to_doc(rep.code)
    prm = rep.params
    source = dict(rep.source or {})
    source["files"] = inputs
    return {
        "theorem": rep.kind,
        "hypotheses": [{"name": n, "ok": ok} for n, ok in rep.hypotheses],
        "field": code_doc["field"],
        "ambient": code_doc["ambient"],
        "params": {"n": prm.n, "size": prm.size, "d": prm.d,
                   "K": list(prm.dims), "q": prm.q},
        "lcd_verified": rep.lcd_verified,
        "enumeration_complete": rep.enumeration_complete,
        "distance_exhaustive": rep.distance_exhaustive,
        "codewords": code_doc["codewords"],
        "informational": {
            "algebra_dim": rep.algebra_dim,
            "alphas": list(rep.alphas),
            "include_zero_x": rep.include_zero_x,
            "identity_pairs_checked": rep.identity_pairs_checked,
            "identity_all_pairs": rep.identity_all_pairs,
            "tallies": rep.tallies,
            "source": source,
        },
    }


def _classical_doc(rep, inputs):
    return {
        "theorem": rep.kind,
        "hypotheses": [{"name": n, "ok": ok} for n, ok in rep.hypotheses],
        "field": {"p": rep.field.p, "r": rep.field.r},
        "t": rep.t,
        "length": rep.length,
        "alpha": rep.alpha,
        "scheme_index": rep.scheme_index,
        "generator": rep.generator.tolist(),
        "lcd_verified": rep.lcd_verified,
        "informational": {"source": {"files": inputs}},
    }


# the files of construct are read as the one input of its kind they stand for
_FILE_INPUTS = {"scheme": _load_scheme, "graph": _load_graph, "matrices": _load_int_matrices}


def _cmd_construct(args):
    row = PIPELINES[args.kind]
    name = next(name for name in row.needs if name in _FILE_INPUTS)
    inputs = {name: _FILE_INPUTS[name](args.files)}
    # an option the kind does not read goes through as given, for
    # theorem_pipeline to reject
    group, partition = args.group, args.partition
    if group is not None and row.reads("group"):
        group = fileio.read_group(group)
    if row.points is not None:
        partition = _resolve_partition(partition, row.points(inputs))
    rep = theorem_pipeline(
        args.kind, p=args.p, r=args.r, partition=partition, group=group,
        weight=args.weight, indices=args.indices, index=args.index, alpha=args.alpha,
        sweep_alpha=args.alpha_sweep, include_zero_x=args.include_zero_x,
        cap=args.cap, sample=args.sample, seed=args.seed, **inputs)
    doc = _classical_doc if isinstance(rep, ClassicalCodeReport) else _construction_doc
    _emit(doc(rep, args.files), args.out)
    return 0


# --- decode / simulate ---


def _outcome_doc(out):
    return {"status": out.status, "index": out.index, "distance": out.distance}


def _cmd_decode(args):
    code = fileio.read_code_json(args.code)
    data = fileio.read_matrix(args.received)
    _, rows = fileio.matrix_over_field(data, code.field)
    received = Subspace(code.field, code.n, rows)
    if args.method == "naive":
        doc = {"method": "naive", **_outcome_doc(decode_naive(code, received))}
    elif args.method == "projection":
        doc = {"method": "projection",
               **_outcome_doc(decode_projection(code, received))}
    else:
        a = decode_naive(code, received)
        b = decode_projection(code, received)
        doc = {"method": "both", "naive": _outcome_doc(a),
               "projection": _outcome_doc(b),
               "agree": (a.status, a.index, a.distance) ==
                        (b.status, b.index, b.distance)}
        if not doc["agree"]:
            _emit(doc, args.out)
            return 1
    _emit(doc, args.out)
    return 0


def _cmd_simulate(args):
    code = fileio.read_code_json(args.code)
    spec = ChannelSpec(args.erasures, args.errors, args.seed)
    stats = run_experiment(code, spec, args.trials)
    doc = stats.as_dict()
    doc["informational"] = {"naive_seconds": doc.pop("naive_seconds"),
                            "projection_seconds": doc.pop("projection_seconds")}
    _emit(doc, args.out)
    return 0


# --- screen ---


def _cmd_screen(args):
    if args.from_graph:
        scheme = scheme_from_drg(fileio.read_graph(args.from_graph))
    elif args.scheme:
        scheme = _load_scheme(args.scheme)
    else:
        raise InvalidSpec("screen needs --scheme files or --from-graph")
    cliques = divisibility_screen(scheme, args.p)
    _emit({"p": args.p, "classes": scheme.classes,
           "index_sets": [list(c) for c in cliques]})
    return 0


# --- parser ---


@cache
def _build_parser():
    """The parser of every subcommand, built once per process: parse_args
    reads it and changes none of it, and a fresh build costs about 1 ms
    and some 280 objects in reference cycles."""
    top = argparse.ArgumentParser(
        prog="lcdsubspace",
        description="Construct, verify, decode, and simulate LCD subspace codes.")
    sub = top.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="validate objects stored in text files")
    v.add_argument("what",
                   choices=["hadamard", "weighing", "scheme", "drg", "partition"])
    v.add_argument("files", nargs="+")
    v.add_argument("--weight", type=int, default=None)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("search", help="grow a pairwise unbiased set")
    ssub = s.add_subparsers(dest="target_kind", required=True)
    mub = ssub.add_parser("mub")
    mub.add_argument("--order", type=int, required=True)
    mub.add_argument("--target", type=int, required=True)
    mub.add_argument("--budget", type=int, default=10 ** 8)
    mub.add_argument("--kind", choices=["hadamard", "weighing"],
                     default="hadamard")
    mub.add_argument("--weight", type=int, default=None)
    mub.add_argument("--seed-file", action="append", default=[])
    mub.add_argument("--out", default="mub")
    mub.set_defaults(func=_cmd_search)

    c = sub.add_parser("construct", help="run a construction pipeline")
    c.add_argument("kind", choices=list(PIPELINE_KINDS))
    c.add_argument("files", nargs="+")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--partition", type=_partition_arg, default=None,
                   help="partition file, 'singletons', or 'blocks:SIZE'")
    c.add_argument("--group", default=None)
    c.add_argument("--indices", type=_indices_arg, default=None)
    c.add_argument("--index", type=int, default=None)
    c.add_argument("--alpha", type=int, default=1)
    c.add_argument("--weight", type=int, default=None)
    c.add_argument("--alpha-sweep", action="store_true")
    c.add_argument("--include-zero-x", action="store_true")
    c.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    c.add_argument("--sample", type=int, default=SAMPLE_SIZE)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--out", default=None)
    c.set_defaults(func=_cmd_construct)

    d = sub.add_parser("decode", help="decode a received subspace")
    d.add_argument("--code", required=True)
    d.add_argument("--received", required=True)
    d.add_argument("--method", choices=["naive", "projection", "both"],
                   default="both")
    d.add_argument("-o", "--out", default=None)
    d.set_defaults(func=_cmd_decode)

    m = sub.add_parser("simulate", help="operator-channel simulation")
    m.add_argument("--code", required=True)
    m.add_argument("--erasures", type=int, default=0)
    m.add_argument("--errors", type=int, default=0)
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("-o", "--out", default=None)
    m.set_defaults(func=_cmd_simulate)

    sc = sub.add_parser("screen", help="divisibility screen over scheme classes")
    sc.add_argument("--scheme", nargs="+", default=None)
    sc.add_argument("--from-graph", default=None)
    sc.add_argument("--p", type=int, required=True)
    sc.set_defaults(func=_cmd_screen)

    return top


def _fail(exc, witness):
    """Exit status 1, with the {error, message, witness} document on stderr."""
    doc = {"error": type(exc).__name__, "message": str(exc),
           "witness": _jsonable(witness)}
    sys.stderr.write(fileio.dumps(doc))
    return 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except LcdError as exc:
        return _fail(exc, exc.witness)
    except OSError as exc:  # a missing or unreadable input file
        return _fail(exc, exc.filename)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
