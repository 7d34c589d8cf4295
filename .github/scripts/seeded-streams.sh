#!/bin/bash
# Seeded streams past one word, and a bad seed, on the README three-word
# GF(2) code, on CI's (5, 3, 4; 2) code over GF(9) and on an F_2^4 code.
# Each simulator chunk's streams are seeded, advanced and mapped through the
# bounded map as arrays, which must match numpy's default_rng((seed, i, 0)),
# one stream per trial, whatever the seed: the codeword index is its first
# draw, from its first output, and the channel reads it from the second
# output on.  Here for two-word seeds (2^32, and 2^64 - 1, the largest that
# SeedSequence's pool of 4 words holds with a one-word trial index and 0),
# three-word ones (2^64, and 2^64 + 5 over GF(9), whose odd q goes through
# the bounded map's rejection test) and a four-word one (2^100 + 7, six
# entropy words with the trial index and 0).  Tallies are correct, failure,
# wrong and mean distance, those of a replay on numpy's own Generator.  The
# channel must not depend on the codeword sent: one erasure of the LCD code
# {<1000, 0001>, <1000, 0111>, <1010, 0111>} ties on 4 of its 9 lines, so
# 9,000 trials fail within 4 sigma of 4,000 (an index read from the
# channel's first output gave 2,519).  A negative seed is exit 1 with
# InvalidSpec.  Run from the repository root:
# bash .github/scripts/seeded-streams.sh
set -eu -o pipefail
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf '%s\n' '{"field": {"p": 2, "r": 1}, "ambient": 4, "codewords": [[[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 1, 1, 0], [0, 0, 0, 1]], [[1, 1, 0, 1], [0, 0, 1, 0]]]}' > "$tmp/readme.json"
for run in "4294967296 188 262 50 1.39" "18446744073709551615 166 287 47 1.442" \
    "18446744073709551616 166 292 42 1.442" "1267650600228229401496703205383 178 275 47 1.474"; do
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
  | python -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit([r["correct"], r["failure"], r["wrong"], r["mean_distance"]] != [195, 5, 0, 2.0])'
printf '%s\n' '{"field": {"p": 2, "r": 1}, "ambient": 4, "codewords": [[[1, 0, 0, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 1, 1]], [[1, 0, 1, 0], [0, 1, 1, 1]]]}' > "$tmp/ties.json"
python -m lcdsubspace.cli simulate --code "$tmp/ties.json" \
  --erasures 1 --errors 0 --trials 9000 --seed 7 \
  | python -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit(not 3812 <= r["failure"] <= 4188)'
rc=0
python -m lcdsubspace.cli simulate --code "$tmp/readme.json" \
  --trials 3 --seed -1 2> "$tmp/err.json" || rc=$?
test "$rc" = 1
python -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r); sys.exit(r["error"] != "InvalidSpec")' "$tmp/err.json"
