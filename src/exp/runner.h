// Staged sweep engine: plan -> cache-lookup -> execute -> stream -> merge
// (DESIGN.md §7, §9).
//
// Each point owns its own TrainingSimulator. The only state points share is
// the immutable gate trace of a gate config (moe/gate_trace.h), produced
// once through the sweep's GateTraceMemo; every other stochastic component
// draws from the point's own seeded Rng, so points are embarrassingly
// parallel. Workers claim points from an atomic counter and write results
// into a pre-sized vector slot keyed by point index, so the collected
// ResultTable is identical whether the sweep runs with --jobs 1 or --jobs N.
//
// With a ResultCache in the RunContext the engine adds the content-addressed
// stages: each point's canonical key (exp/cache_key.h) is looked up in the
// cache before execution; hits are returned with zero simulation work,
// misses owned by this shard execute and stream their record to disk the
// moment they finish, and the result vector -- indexed by point,
// independent of completion order -- is the deterministic merge. Because per-point seeds
// derive from (base seed, index), an N-way sharded run merged from the
// cache is bit-identical to a serial run by construction.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/context.h"
#include "exp/scenario.h"

namespace mixnet::exp {

/// Measurements of one executed sweep point.
struct PointResult {
  std::size_t index = 0;
  int iterations = 0;
  /// Mean seconds per iteration (accumulated in iteration order, matching
  /// the historical benchutil::measure_iteration_sec).
  double iter_sec = 0.0;
  /// Per-iteration results, in execution order.
  std::vector<sim::IterationResult> iters;
  /// Fig. 3 timeline of the first MoE block after the last iteration.
  sim::PhaseTimeline timeline;
  /// Named metrics beyond the iteration results: a serve point's SLO metrics
  /// (serve::slo_metrics). Empty for training points.
  std::map<std::string, double> extra;
  /// Serve Copilot least-squares solves this process ran for the point: a
  /// host work counter kept out of `extra`, so the result cache never stores
  /// it and a cache hit reports 0.
  std::size_t copilot_solves = 0;

  /// Non-empty when the point threw under a keep-going run (ctx.stats set):
  /// the what() text. Failed points carry zeroed measurements.
  std::string error;
  /// Served from the ResultCache (no simulation work this process).
  bool from_cache = false;
  /// Owned by another shard and absent from the cache: intentionally not
  /// executed. Carries zeroed measurements.
  bool skipped = false;

  bool ok() const { return error.empty() && !skipped; }
  /// Last measured iteration; a zeroed result for skipped/failed points so
  /// table code can render partial sweeps without UB.
  const sim::IterationResult& last() const;
};

/// Execute one point: build the simulator and run the measured iterations.
/// With a memo a training point reads the memo's gate trace over exactly its
/// measured iterations; without one it records a private trace.
PointResult run_point(const SweepPoint& point,
                      moe::GateTraceMemo* memo = nullptr);

/// The sweep engine: cache lookup under ctx.scenario, shard filtering,
/// streamed records, per-point keep-going error capture into ctx.stats.
/// Results are indexed by point index regardless of execution order, with
/// ctx.jobs worker threads (<= 1 means serial). Without ctx.stats a
/// throwing point rethrows on the caller's thread (fail-fast) after workers
/// drain; with it the point's error is recorded and the sweep continues.
/// Points share gate traces through ctx.gate_traces.
std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   const RunContext& ctx);

/// run_sweep under a default RunContext with `jobs` workers: no cache, no
/// shard, fail-fast, and a gate-trace memo local to the call.
std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   int jobs = 1);

}  // namespace mixnet::exp
