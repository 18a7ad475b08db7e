#!/usr/bin/env bash
# Static-analysis gate (DESIGN.md §10; CI `lint` and `clang-tidy` jobs).
#
# Always runs the three mixnet-lint analyzers (layer DAG, cache-key
# completeness, determinism) -- pure Python over the source tree, no build
# required. clang-tidy (bugprone-*/concurrency-*/performance-* per the
# checked-in .clang-tidy, warnings-as-errors) additionally runs when the
# binary is available or --clang-tidy demands it; it needs a
# compile_commands.json, which this script generates into build-tidy/.
#
# Exit non-zero on the first violated gate, with the analyzer's diagnostics
# on stdout.
set -euo pipefail

usage() {
  cat <<EOF
Usage: scripts/lint.sh [--clang-tidy] [--no-clang-tidy] [--jobs N] [--help]

  --clang-tidy     require the clang-tidy pass (error if the binary is
                   missing); default is to run it only when available
  --no-clang-tidy  mixnet-lint analyzers only
  --jobs N         parallelism for clang-tidy (default: nproc)
  --help           this text
EOF
}

jobs=$(nproc)
tidy=auto
while [ $# -gt 0 ]; do
  case "$1" in
    --clang-tidy) tidy=require ;;
    --no-clang-tidy) tidy=off ;;
    --jobs) shift; jobs=${1:?--jobs needs a value} ;;
    --jobs=*) jobs=${1#--jobs=} ;;
    --help|-h) usage; exit 0 ;;
    *) echo "lint.sh: unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
  shift
done

cd "$(dirname "$0")/.."

echo "== mixnet-lint (layer DAG, cache-key completeness, determinism) =="
python3 tools/mixnet_lint.py

echo "== mixnet-lint (ServeConfig cache-key completeness) =="
python3 tools/mixnet_lint.py cache-key --cache-key-config tools/lint/cache_key_serve.json

echo "== mixnet-lint (GateConfig gate-trace key completeness) =="
python3 tools/mixnet_lint.py cache-key --cache-key-config tools/lint/gate_trace_key.json

if [ "$tidy" = off ]; then
  exit 0
fi
if ! command -v clang-tidy > /dev/null 2>&1; then
  if [ "$tidy" = require ]; then
    echo "lint.sh: --clang-tidy requested but clang-tidy is not installed" >&2
    exit 2
  fi
  echo "lint.sh: clang-tidy not installed; skipping (CI runs it; use --clang-tidy to require)"
  exit 0
fi

echo "== clang-tidy (.clang-tidy, warnings-as-errors) =="
# A dedicated build dir: compile_commands.json only, nothing is compiled.
# Tests/bench/examples are excluded -- the curated checks police src/.
cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DMIXNET_BUILD_TESTS=OFF -DMIXNET_BUILD_BENCH=OFF \
  -DMIXNET_BUILD_EXAMPLES=OFF > /dev/null

mapfile -t sources < <(find src -name '*.cc' | sort)
if command -v run-clang-tidy > /dev/null 2>&1; then
  run-clang-tidy -p build-tidy -quiet -j "$jobs" "${sources[@]}"
else
  clang-tidy -p build-tidy -quiet "${sources[@]}"
fi
echo "clang-tidy: clean"
