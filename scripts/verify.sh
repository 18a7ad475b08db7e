#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full CTest suite, then the figure
# pass (scripts/scenario_digests.py): every registered scenario once, cold,
# with its shape check, its output sha256 and its exact work counters
# compared with bench/scenario_digests.json. The pass writes each
# scenario's seconds and counters to BENCH_verify.json at the repo root.
# Exits non-zero on the first failing step, so CI can gate on this script.
set -euo pipefail

usage() {
  cat <<EOF
Usage: scripts/verify.sh [--jobs N] [--quick] [--lint] [--help]

  --jobs N   worker threads for build, ctest, and the sweep points of the
             figure pass (default: nproc)
  --quick    skip the CTest suite and run only the figure pass; the tier-1
             gate is the full run
  --lint     run the full static-analysis gate too: scripts/lint.sh
             (mixnet-lint + clang-tidy when available) before the build,
             and the TSan threaded suites (exp_test, cache_test,
             phase_runner_test, pkt_test, net_test under the tsan preset)
             after CTest — the whole DESIGN.md §10 gate with one command
  --help     this text
EOF
}

jobs=$(nproc)
quick=0
lint=0
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) shift; jobs=${1:?--jobs needs a value} ;;
    --jobs=*) jobs=${1#--jobs=} ;;
    --quick) quick=1 ;;
    --lint) lint=1 ;;
    --help|-h) usage; exit 0 ;;
    *) echo "verify.sh: unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
  shift
done

cd "$(dirname "$0")/.."

if [ "$lint" -eq 1 ]; then
  ./scripts/lint.sh --jobs "$jobs"
fi

cmake -B build -S .
if [ "$quick" -eq 0 ]; then
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")
fi

if [ "$lint" -eq 1 ]; then
  # Race-detector pass over the suites that exercise the threaded sweep
  # engine (DESIGN.md §10) plus the packet engine used from sweep worker
  # threads (DESIGN.md §12) and the SoA FlowSim state shared across sweep
  # points (DESIGN.md §13): the binaries run whole, jobs > 1 inside.
  echo "== tsan: exp_test cache_test phase_runner_test pkt_test net_test =="
  cmake --preset tsan > /dev/null
  cmake --build --preset tsan -j "$jobs" -t exp_test cache_test phase_runner_test pkt_test net_test
  for t in exp_test cache_test phase_runner_test pkt_test net_test; do
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      "./build-tsan/tests/$t" --gtest_brief=1
  done
fi

# The figure pass. In --quick mode only mixnet-bench is built (the test
# suites are never run).
cmake --build build -j "$jobs" -t mixnet-bench
python3 scripts/scenario_digests.py --build build --jobs "$jobs"
