#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full CTest suite, then run the
# figure smoke through the mixnet-bench scenario runner so perf regressions
# on the phase-simulation hot path show up in CI output AND in a
# machine-readable perf trajectory (BENCH_verify.json at the repo root).
# Exits non-zero on the first failing step — including a bench binary that
# crashes, a registered paper-shape check that fails (`mixnet-bench
# --check` exits 3 on violations), or a scenario whose cold output no longer
# matches bench/scenario_digests.json — so the CI figures-smoke job can gate
# on this script directly.
set -euo pipefail

usage() {
  cat <<EOF
Usage: scripts/verify.sh [--jobs N] [--quick] [--lint] [--help]

  --jobs N   worker threads for build, ctest, and the smoke sweep points
             (default: nproc)
  --quick    skip the CTest suite and run only the figures smoke; for fast
             perf iteration — the tier-1 gate is the full run
  --lint     run the full static-analysis gate too: scripts/lint.sh
             (mixnet-lint + clang-tidy when available) before the build,
             and the TSan threaded suites (exp_test, cache_test,
             phase_runner_test, pkt_test, net_test under the tsan preset)
             after CTest — the whole DESIGN.md §10 gate with one command
  --help     this text

Environment overrides (kept for CI matrix use):
  MIXNET_SMOKE_BENCHES   space-separated scenario names (default "fig12
                         fig13 serve-storm fidelity-ladder fig26-xl fig26";
                         empty skips the smoke entirely)
  MIXNET_FIG26XL_ARM     fig26-xl arm (small|full; default small — the
                         smoke runs the small arm, see EXPERIMENTS.md)
  MIXNET_SMOKE_JOBS      smoke worker count (overrides --jobs for the smoke)
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

# Figure-bench smoke: the two scenarios that stress the phase-simulation
# path hardest (fig12/fig13 sweep full training iterations over every
# fabric), the serving ablation (serve-storm drives the open-loop
# ServeSimulator and its re-placement control loop end to end), and the
# fidelity ladder (fidelity-ladder runs one workload on all three network
# backends and machine-gates their agreement, DESIGN.md §12), and the
# analytic-core scaling sweep (fig26-xl small arm gates the explicit-vs-
# analytic equivalence and the throughput monotonicity, DESIGN.md §13), and
# the explicit-core scaling sweep (fig26 routes 32k-GPU leaf-spine and rail
# fabrics in closed form; a fallback to BFS routing multiplies its time),
# executed by `mixnet-bench --run <scenario> --jobs N --check` so sweep
# points use the requested cores and the registered paper-shape checks
# (ScenarioInfo::check, see EXPERIMENTS.md) gate the run. In --quick mode
# only mixnet-bench is built (the test suites are never run).
cmake --build build -j "$jobs" -t mixnet-bench
smoke_benches=${MIXNET_SMOKE_BENCHES-"fig12 fig13 serve-storm fidelity-ladder fig26-xl fig26"}
smoke_jobs=${MIXNET_SMOKE_JOBS-$jobs}
total_ns=0
bench_json=""
stats_tmp=$(mktemp)
trap 'rm -f "$stats_tmp"' EXIT
for b in $smoke_benches; do
  start=$(date +%s%N)
  ./build/bench/mixnet-bench --run "$b" --jobs "$smoke_jobs" --check \
      --stats "$stats_tmp" > /dev/null || {
    status=$?
    echo "verify.sh: mixnet-bench --run $b failed (exit $status)" >&2
    exit "$status"
  }
  end=$(date +%s%N)
  dur=$((end - start))
  total_ns=$((total_ns + dur))
  # Result-cache counters for this scenario (DESIGN.md §9): a warm cache
  # makes the smoke near-instant, so the perf trajectory records hit/miss
  # counts alongside wall time to keep the numbers interpretable.
  hits=$(grep -o '"hits":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  computed=$(grep -o '"computed":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  points=$(grep -o '"points":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  # Gate traces built and shared (DESIGN.md §9): exact work counters, so
  # unlike wall seconds they do not depend on host speed.
  built=$(grep -o '"built":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  shared=$(grep -o '"shared":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  # Copilot least-squares solves of the computed points (cache hits add 0).
  solves=$(grep -o '"copilot_solves":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  # Packet hop arrivals the packet engine processed one by one (cache hits
  # and fast-forwarded periods add 0). Printed with %s: mawk's %d stops at
  # 2^31 - 1.
  arrivals=$(grep -o '"pkt_arrivals":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  awk -v d="$dur" -v n="$b" -v h="${hits:-0}" -v c="${computed:-0}" \
      -v t="${built:-0}" -v q="${solves:-0}" -v a="${arrivals:-0}" \
    'BEGIN{printf "smoke %-28s %8.2f s  (cache: %d hits, %d computed; %d gate traces; %d copilot solves; %s packet arrivals)\n", n, d/1e9, h, c, t, q, a}'
  entry=$(awk -v d="$dur" -v n="$b" -v h="${hits:-0}" -v c="${computed:-0}" \
      -v p="${points:-0}" -v t="${built:-0}" -v s="${shared:-0}" \
      -v q="${solves:-0}" -v a="${arrivals:-0}" \
    'BEGIN{printf "{\"name\":\"%s\",\"seconds\":%.3f,\"cache\":{\"points\":%d,\"hits\":%d,\"computed\":%d},\"gate_traces\":{\"built\":%d,\"shared\":%d},\"copilot_solves\":%d,\"pkt_arrivals\":%s}", n, d/1e9, p, h, c, t, s, q, a}')
  bench_json="${bench_json:+$bench_json,}$entry"
  # fig12 sweeps 4 models x 5 fabrics x 4 bandwidths under one shared seed
  # per model, so a cold run records exactly one gate trace per model. Any
  # other count means points stopped sharing (or shared across models).
  if [ "$b" = fig12 ] && [ "${hits:-0}" -eq 0 ] && [ "${built:-0}" -ne 4 ]; then
    echo "verify.sh: fig12 built ${built:-0} gate traces on a cold run (expected 4)" >&2
    exit 1
  fi
  # serve-storm's re-placement-on arm is the only smoke point that reads a
  # Copilot prediction, so it is the only one that builds Copilots: 4 stage
  # layers x 6 solves (its 432 engine steps give each layer 431 observations,
  # one solve per 64) = 24 on a cold run. Feeding the off arm's Copilots too
  # (520 steps: 4 x 8 more) would make it 56.
  if [ "$b" = serve-storm ] && [ "${hits:-0}" -eq 0 ] && [ "${solves:-0}" -ne 24 ]; then
    echo "verify.sh: serve-storm ran ${solves:-0} Copilot solves on a cold run (expected 24)" >&2
    exit 1
  fi
  # fidelity-ladder's two packet points process exactly this many packet hop
  # arrivals once the engine's periodic fast-forward skips the repeating
  # stretches of its phases (28.0M when every instant was stepped). More
  # means the fast-forward stopped engaging; fewer means it skips what it
  # did not before, and the digest gate says whether that stayed exact.
  if [ "$b" = fidelity-ladder ] && [ "${hits:-0}" -eq 0 ] && [ "${arrivals:-0}" -ne 23659264 ]; then
    echo "verify.sh: fidelity-ladder processed ${arrivals:-0} packet arrivals on a cold run (expected 23659264)" >&2
    exit 1
  fi
done
awk -v d="$total_ns" 'BEGIN{printf "smoke total bench wall time    %8.2f s\n", d/1e9}'

# Perf trajectory: one JSON object per verify run, overwritten in place so
# CI can archive/diff it across commits (the committed reference lives at
# bench/figures_smoke_baseline.json; the CI smoke job fails on >20%
# regression against it).
awk -v benches="$bench_json" -v total="$total_ns" -v jobs="$smoke_jobs" 'BEGIN{
  printf "{\"suite\":\"figures-smoke\",\"jobs\":%d,\"benches\":[%s],", jobs, benches
  printf "\"total_seconds\":%.3f}\n", total/1e9
}' > BENCH_verify.json
echo "wrote BENCH_verify.json"

# Scenario fingerprint gate: every registered scenario's
# cold `--no-cache --format json` output must match its sha256 in
# bench/scenario_digests.json; a mismatch names the scenario and says
# whether kCacheSchemaVersion moved. The digests are recorded with GCC
# Release, so on any other build/ the script prints that it skipped.
python3 scripts/scenario_digests.py --build build --jobs "$jobs"
