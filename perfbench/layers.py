"""Per-layer tracing by wrapping public functions of lcdsubspace modules.

Each traced function is replaced at every name a caller can look it up by:
on its class for methods, and in the globals of every lcdsubspace module
(and the package namespace) for module-level functions.  A wrapper counts
calls, total time (outermost call only, so recursion is not counted twice)
and self time (total minus the time of traced calls made inside it).
Nothing in ``src/`` changes; an untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# metric name -> (module, attribute path); a class stands for its __init__
TRACED = {
    "gf.rref": ("gf", "GF.rref"),
    "gf.matmul": ("gf", "GF.matmul"),
    "gf.kernel": ("gf", "GF.kernel"),
    "gf.inv_matrix": ("gf", "GF.inv_matrix"),
    "gf.det": ("gf", "GF.det"),
    "subspaces.Subspace": ("subspaces", "Subspace.__init__"),
    "subspaces.dual": ("subspaces", "Subspace.dual"),
    "subspaces.distance": ("subspaces", "distance"),
    "subspaces.projector_complement": ("subspaces", "projector_complement"),
    "codes.is_lcd_subspace_code": ("codes", "is_lcd_subspace_code"),
    "codes.params": ("codes", "params"),
    "codes.ProjectionDecoder.__init__": ("codes", "ProjectionDecoder.__init__"),
    "codes.ProjectionDecoder.decode": ("codes", "ProjectionDecoder.decode"),
    "codes.decode_naive": ("codes", "decode_naive"),
    "constructions.bush_schemes": ("constructions", "bush_schemes"),
    "constructions.algebra_closure": ("constructions", "algebra_closure"),
    "constructions.subspace_code_from_algebra":
        ("constructions", "subspace_code_from_algebra"),
    "hadamard.UnbiasedSet": ("hadamard", "UnbiasedSet.__init__"),
    "schemes.scheme_from_matrices": ("schemes", "scheme_from_matrices"),
    "schemes.quotient_matrices": ("schemes", "quotient_matrices"),
    "simulator.corrupt": ("simulator", "corrupt"),
    "simulator.run_experiment": ("simulator", "run_experiment"),
    "fileio.read_code_json": ("fileio", "read_code_json"),
    "fileio.read_matrix": ("fileio", "read_matrix"),
    "cli.main": ("cli", "main"),
}
STATS = ("calls", "total_s", "self_s")


def _rref_cells(args):
    return int(np.prod(np.shape(args[1])))


def _matmul_macs(args):
    (m, k), n = np.shape(args[1]), np.shape(args[2])[1]
    return m * k * n


# work computed from argument shapes: traced name -> (metric, counter)
COUNTED = {"gf.rref": ("gf.rref.cells", _rref_cells),
           "gf.matmul": ("gf.matmul.macs", _matmul_macs)}


class Tracer:
    """Installs the wrappers; snapshot() reads every counter."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records = {}
        self.work = {metric: 0 for metric, _ in COUNTED.values()}
        self._stack = []
        self._replaced = []
        for name, (mod, path) in TRACED.items():
            owner = importlib.import_module(f"lcdsubspace.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:
                self._replace(owner, attr, original, wrapper)
            else:
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "lcdsubspace":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._replaced.append((owner, attr, original))

    def uninstall(self):
        """Put every original function back."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def _wrap(self, name, fn):
        rec = self.records[name] = [0, 0.0, 0.0]
        key, count = COUNTED.get(name, (None, None))
        work = self.work
        stack = self._stack
        depth = [0]
        clock = self.clock

        def wrapper(*args, **kwargs):
            if count is not None:
                work[key] += count(args)
            rec[0] += 1
            depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                depth[0] -= 1
                rec[2] += dt - inner
                if not depth[0]:
                    rec[1] += dt
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def snapshot(self):
        out = {f"{name}.{stat}": rec[i]
               for name, rec in self.records.items()
               for i, stat in enumerate(STATS)}
        out.update(self.work)
        return out


def per_layer(setup, end, ops):
    """Counters for one set-up plus one mean operation of the timed phase."""
    return {k: setup[k] + (end[k] - setup[k]) / ops for k in end}

