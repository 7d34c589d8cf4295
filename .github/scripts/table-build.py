"""Time the log/exp table build of the large fields and take its memory peak.

For GF(2**16), GF(2**17), GF(2**20) and GF(1048573), print the wall time of
one table build on a fresh field, the tracemalloc peak of a second build on
another, and the memory the tables keep.  Run from the root of the
repository:

    PYTHONPATH=src python .github/scripts/table-build.py
"""

import time
import tracemalloc

from lcdsubspace.gf import GF

FIELDS = ((2, 16), (2, 17), (2, 20), (1048573, 1))


def main():
    for p, r in FIELDS:
        f = GF(p, r)
        start = time.perf_counter()
        f._tables()
        seconds = time.perf_counter() - start
        f = GF(p, r)
        tracemalloc.start()
        try:
            exp, log = f._tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = exp.nbytes + log.nbytes
        print(f"{f!r:>13}  build {seconds:.3f} s  peak {peak / 2**20:5.1f} MiB"
              f"  kept {kept / 2**20:5.1f} MiB")


if __name__ == "__main__":
    main()
