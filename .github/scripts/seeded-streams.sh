#!/bin/bash
# Seeded streams past one word, and a bad seed, on the README three-word
# GF(2) code and on CI's (5, 3, 4; 2) code over GF(9).  Each simulator
# chunk's streams are seeded, advanced and mapped through the bounded map as
# arrays, which must match numpy's default_rng, here for a two-word seed
# (2^32) and a four-word one (2^100 + 7, five entropy words with the trial
# index), and over GF(9), whose odd q goes through the bounded map's
# rejection test, for a three-word one (2^64 + 5), where the codeword index
# stream (seed, i, 0) and the channel stream (seed, i) differ.  Tallies are
# correct, failure, wrong and mean distance; a negative seed is exit 1 with
# InvalidSpec.  Run from the repository root: bash .github/scripts/seeded-streams.sh
set -eu -o pipefail
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf '%s\n' '{"field": {"p": 2, "r": 1}, "ambient": 4, "codewords": [[[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 1, 1, 0], [0, 0, 0, 1]], [[1, 1, 0, 1], [0, 0, 1, 0]]]}' > "$tmp/readme.json"
for run in "4294967296 169 288 43 1.44" "1267650600228229401496703205383 164 295 41 1.482"; do
  set -- $run
  python -m lcdsubspace.cli simulate --code "$tmp/readme.json" \
    --erasures 1 --errors 1 --trials 500 --seed $1 \
    | python -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit([r["correct"], r["failure"], r["wrong"], r["mean_distance"]] != json.loads(sys.argv[1]))' "[$2, $3, $4, $5]"
done
printf '%s\n' '{"field": {"p": 3, "r": 2}, "ambient": 5, "codewords": [' \
  '[[1, 0, 2, 6, 7], [0, 1, 6, 5, 8]], [[1, 0, 7, 4, 5], [0, 1, 3, 2, 6]],' \
  '[[1, 2, 3, 0, 5], [0, 0, 0, 1, 7]]]}' > "$tmp/gf9.json"
python -m lcdsubspace.cli simulate --code "$tmp/gf9.json" \
  --erasures 1 --errors 1 --trials 200 --seed 18446744073709551621 \
  | python -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit([r["correct"], r["failure"], r["wrong"], r["mean_distance"]] != [197, 3, 0, 1.99])'
rc=0
python -m lcdsubspace.cli simulate --code "$tmp/readme.json" \
  --trials 3 --seed -1 2> "$tmp/err.json" || rc=$?
test "$rc" = 1
python -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(r["error"] != "InvalidSpec")' "$tmp/err.json"
