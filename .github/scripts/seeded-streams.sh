#!/bin/bash
# Seeded streams past one word, and a bad seed, on the README three-word
# GF(2) code.  Each simulator chunk's streams are seeded in one vectorised
# pass and drawn from by one bounded map over their raw words, which must
# match numpy's default_rng, here for a two-word seed (2^32) and a four-word
# one (2^100 + 7, five entropy words with the trial index).  Tallies are
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
rc=0
python -m lcdsubspace.cli simulate --code "$tmp/readme.json" \
  --trials 3 --seed -1 2> "$tmp/err.json" || rc=$?
test "$rc" = 1
python -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(r["error"] != "InvalidSpec")' "$tmp/err.json"
