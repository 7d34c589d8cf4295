#!/bin/bash
# Decoders agree on GF(2) codes either side of the stacked/packed boundary:
# an (8, 4, 4; 3) LCD code, whose batches both decoders rank exactly, on
# one uint64 word per row, and a (10, 4, 6; 4) one, which they decode by
# lazy scans of rows packed into Python ints; some seeded words are tied
# (failures) or wrong.  Each line is n, erasures, errors, then correct,
# failure, wrong and mean distance, those of a replay of the seeded channel
# on numpy's own Generator.  NumPy 1.x promotes uint64 mixed with
# int64 to float64 where 2.x does not, so this runs on both.
# Run from the repository root: bash .github/scripts/gf2-boundary.sh
set -eu -o pipefail
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf '%s\n' '{"field": {"p": 2, "r": 1}, "ambient": 8, "codewords": [' \
  '[[1, 0, 0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 1, 0, 1, 0]],' \
  '[[1, 0, 1, 0, 0, 1, 1, 0], [0, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]],' \
  '[[1, 0, 1, 1, 0, 1, 1, 0], [0, 1, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1, 0, 1]],' \
  '[[1, 1, 1, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 0]]]}' \
  > "$tmp/gf2_n8.json"
printf '%s\n' '{"field": {"p": 2, "r": 1}, "ambient": 10, "codewords": [' \
  '[[1, 0, 0, 0, 0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 1, 0, 1, 0, 0, 0],' \
  ' [0, 0, 1, 0, 1, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1, 1, 1, 1, 0]],' \
  '[[1, 0, 0, 0, 1, 1, 1, 0, 0, 0], [0, 1, 0, 0, 1, 1, 1, 0, 0, 1],' \
  ' [0, 0, 1, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 1, 1, 1]],' \
  '[[1, 0, 0, 0, 1, 1, 1, 1, 0, 1], [0, 1, 0, 0, 1, 0, 0, 0, 1, 0],' \
  ' [0, 0, 1, 0, 0, 1, 1, 0, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0, 1, 0]],' \
  '[[1, 0, 0, 1, 0, 0, 1, 1, 0, 0], [0, 1, 1, 1, 0, 0, 1, 1, 0, 1],' \
  ' [0, 0, 0, 0, 1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]]]}' \
  > "$tmp/gf2_n10.json"
for run in "8 1 1 195 5 0 1.95" "8 2 1 138 62 0 2.945" \
           "10 1 1 200 0 0 1.985" "10 4 3 13 147 40 6.36"; do
  set -- $run
  python -m lcdsubspace.cli simulate --code "$tmp/gf2_n$1.json" \
    --erasures $2 --errors $3 --trials 200 --seed 5 \
    | python -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit([r["correct"], r["failure"], r["wrong"], r["mean_distance"]] != json.loads(sys.argv[1]))' "[$4, $5, $6, $7]"
done
