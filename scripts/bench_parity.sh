#!/usr/bin/env bash
# Refactor parity gate: runs every figure, ablation and table bench
# (bench/fig_*, bench/abl_* and bench/tbl_*, 24 binaries) at
# HLS_TIME_SCALE=0.05 in two build trees and compares their stdout byte for
# byte. A behaviour-preserving change must reproduce every table and csv
# row exactly. The tbl_* benches include tbl_model_validation and
# tbl_capacity, the only ones that print the analytic model's predictions.
#
#   scripts/bench_parity.sh REF_BUILD [NEW_BUILD]
#
# REF_BUILD is a build tree of the reference commit (e.g. a `git clone` of
# it built with the same CMake options); NEW_BUILD defaults to `build`.
# Exits 0 when all benches match, 1 at the first difference (printing a
# diff excerpt), 2 on usage errors or a missing bench binary.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 REF_BUILD [NEW_BUILD]" >&2
  exit 2
fi
REF=$1
NEW=${2:-build}
export HLS_TIME_SCALE=0.05

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

benches=()
for path in "$NEW"/bench/fig_* "$NEW"/bench/abl_* "$NEW"/bench/tbl_*; do
  [[ -f "$path" && -x "$path" ]] && benches+=("$(basename "$path")")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no fig_*/abl_*/tbl_* benches under $NEW/bench" >&2
  exit 2
fi

for b in "${benches[@]}"; do
  if [[ ! -x "$REF/bench/$b" ]]; then
    echo "missing $REF/bench/$b" >&2
    exit 2
  fi
  "$REF/bench/$b" >"$out/ref" 2>/dev/null
  "$NEW/bench/$b" >"$out/new" 2>/dev/null
  if ! cmp -s "$out/ref" "$out/new"; then
    echo "DIFF $b"
    diff "$out/ref" "$out/new" | head -20
    exit 1
  fi
  echo "same $b"
done
echo "all ${#benches[@]} benches byte-identical"
