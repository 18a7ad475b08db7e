#!/usr/bin/env bash
# Cache-reuse and shard-merge gate (CI `cache-reuse` job; DESIGN.md §9).
#
# 1. Cold/warm check: run the figure smoke twice against a fresh cache dir.
#    The cold run must compute every point; the warm run must be 100% cache
#    hits with zero simulation work, and its stdout must be byte-identical.
# 2. Shard-merge check: run fig12 as 2 shards into a second fresh cache dir,
#    then merge with a plain `mixnet-bench --run fig12 --cache DIR` over the
#    shared cache. The merge must recompute nothing, and its output must be
#    byte-identical to a serial --no-cache run.
#
# Expects an already-built tree (build/bench/mixnet-bench). Exits non-zero
# with a diagnostic on the first violated invariant.
set -euo pipefail

cd "$(dirname "$0")/.."
bench=./build/bench/mixnet-bench
[ -x "$bench" ] || { echo "cache_check.sh: $bench not built" >&2; exit 2; }

benches=${MIXNET_SMOKE_BENCHES-"fig12 fig13"}
jobs=${MIXNET_SMOKE_JOBS-$(nproc)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

stat_field() {  # stat_field FILE FIELD -> first value of "FIELD":N
  grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2
}

for b in $benches; do
  cache="$work/cache-$b"
  echo "== cache-reuse: $b =="
  "$bench" --run "$b" --jobs "$jobs" --cache "$cache" \
    --stats "$work/cold.json" > "$work/cold.txt"
  "$bench" --run "$b" --jobs "$jobs" --cache "$cache" \
    --stats "$work/warm.json" > "$work/warm.txt"

  cold_computed=$(stat_field "$work/cold.json" computed)
  warm_computed=$(stat_field "$work/warm.json" computed)
  warm_hits=$(stat_field "$work/warm.json" hits)
  warm_points=$(stat_field "$work/warm.json" points)
  echo "   cold computed=$cold_computed  warm hits=$warm_hits/$warm_points"

  [ "$cold_computed" -gt 0 ] || {
    echo "FAIL: cold run of $b computed nothing (stale cache?)" >&2; exit 1; }
  [ "$warm_computed" -eq 0 ] || {
    echo "FAIL: warm run of $b recomputed $warm_computed point(s)" >&2; exit 1; }
  [ "$warm_hits" -eq "$warm_points" ] || {
    echo "FAIL: warm run of $b hit $warm_hits of $warm_points points" >&2; exit 1; }
  cmp -s "$work/cold.txt" "$work/warm.txt" || {
    echo "FAIL: warm output of $b differs from cold output" >&2
    diff "$work/cold.txt" "$work/warm.txt" >&2 || true; exit 1; }
done

echo "== shard-merge: fig12 (2 shards) =="
shard_cache="$work/cache-shard"
"$bench" --run fig12 --jobs "$jobs" --shard 0/2 --cache "$shard_cache" > "$work/s0.txt"
"$bench" --run fig12 --jobs "$jobs" --shard 1/2 --cache "$shard_cache" > "$work/s1.txt"
[ ! -s "$work/s0.txt" ] && [ ! -s "$work/s1.txt" ] || {
  echo "FAIL: shard runs must not render tables to stdout" >&2; exit 1; }
"$bench" --run fig12 --cache "$shard_cache" \
  --stats "$work/merge.json" > "$work/merged.txt"
merge_computed=$(stat_field "$work/merge.json" computed)
[ "$merge_computed" -eq 0 ] || {
  echo "FAIL: merge recomputed $merge_computed point(s); shards incomplete" >&2
  exit 1; }
"$bench" --run fig12 --jobs "$jobs" --no-cache > "$work/serial.txt"
cmp -s "$work/serial.txt" "$work/merged.txt" || {
  echo "FAIL: 2-shard merged fig12 differs from serial run" >&2
  diff "$work/serial.txt" "$work/merged.txt" >&2 || true; exit 1; }
echo "   merged output byte-identical to serial"

echo "cache_check.sh: all invariants hold"
