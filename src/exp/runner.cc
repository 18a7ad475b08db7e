#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "exp/cache_key.h"
#include "exp/result_cache.h"
#include "serve/serve_sim.h"

namespace mixnet::exp {

const sim::IterationResult& PointResult::last() const {
  static const sim::IterationResult kZero{};
  return iters.empty() ? kZero : iters.back();
}

namespace {

/// Serving-mode execution: one ServeSimulator run; every SLO metric rides
/// in `extra` (the result cache round-trips it verbatim, so serve points
/// need no record-format change).
PointResult run_serve_point(const SweepPoint& point) {
  PointResult res;
  res.index = point.index;
  res.iterations = point.iterations;
  serve::ServeSimulator simulator(point.cfg, *point.serve);
  const serve::ServeReport report = simulator.run();
  res.extra = serve::slo_metrics(report, *point.serve);
  res.iter_sec = ns_to_sec(report.makespan);
  res.copilot_solves = report.copilot_solves;
  return res;
}

}  // namespace

PointResult run_point(const SweepPoint& point, moe::GateTraceMemo* memo) {
  if (point.serve) return run_serve_point(point);
  PointResult res;
  res.index = point.index;
  res.iterations = point.iterations;
  sim::TrainingSimulator simulator(point.cfg, memo, point.iterations);
  double total = 0.0;
  res.iters.reserve(static_cast<std::size_t>(point.iterations));
  for (int i = 0; i < point.iterations; ++i) {
    res.iters.push_back(simulator.run_iteration());
    total += ns_to_sec(res.iters.back().total);
  }
  res.iter_sec = total / point.iterations;
  res.timeline = simulator.layer_timeline();
  return res;
}

namespace {

/// The what() text of a captured exception, "unknown exception" for a
/// thrown non-exception.
std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Execute `todo` (indices into `points`) on a worker pool, writing into
/// `results` slots. keep_going: capture a throwing point's what() in its
/// result slot; otherwise fail fast and rethrow after workers drain.
/// on_done (optional) runs on the worker thread for each successful point
/// -- the stream stage.
template <typename OnDone>
void execute_points(const std::vector<SweepPoint>& points,
                    const std::vector<std::size_t>& todo,
                    std::vector<PointResult>& results, int jobs,
                    bool keep_going, moe::GateTraceMemo* memo,
                    OnDone on_done) {
  if (todo.empty()) return;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto work = [&]() {
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= todo.size() || (!keep_going && failed.load())) return;
      const std::size_t i = todo[t];
      try {
        results[i] = run_point(points[i], memo);
        on_done(i);
      } catch (...) {
        if (keep_going) {
          results[i] = PointResult{};
          results[i].index = points[i].index;
          results[i].iterations = points[i].iterations;
          results[i].error = error_text(std::current_exception());
          continue;
        }
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true);
        return;
      }
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(jobs > 1 ? static_cast<std::size_t>(jobs) : 1,
                            todo.size());
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   int jobs) {
  RunContext ctx;
  ctx.jobs = jobs;
  return run_sweep(points, ctx);
}

std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   const RunContext& ctx) {
  // Backend override (`mixnet-bench --backend`): rewrite the points *before*
  // cache keys are computed, so overridden runs hash — and cache — as what
  // they actually simulate.
  if (ctx.backend_override) {
    std::vector<SweepPoint> overridden = points;
    for (SweepPoint& p : overridden) p.cfg.backend = *ctx.backend_override;
    RunContext sub = ctx;
    sub.backend_override.reset();
    return run_sweep(overridden, sub);
  }
  std::vector<PointResult> results(points.size());
  if (points.empty()) return results;
  const int shard_count = std::max(1, ctx.shard_count);
  const int shard_index =
      std::min(std::max(0, ctx.shard_index), shard_count - 1);

  // Plan + cache-lookup: every point gets its content key; hits are merged
  // in immediately, misses owned by this shard queue for execution, misses
  // owned by other shards are marked skipped.
  std::vector<std::string> keys(points.size());
  std::vector<std::size_t> todo;
  std::size_t hits = 0, skipped = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ctx.cache) {
      keys[i] = point_cache_key(ctx.scenario, points[i]);
      if (auto cached = ctx.cache->lookup(ctx.scenario, keys[i])) {
        results[i] = std::move(*cached);
        results[i].index = points[i].index;
        ++hits;
        continue;
      }
    }
    if (static_cast<int>(i % static_cast<std::size_t>(shard_count)) !=
        shard_index) {
      results[i].index = points[i].index;
      results[i].iterations = points[i].iterations;
      results[i].skipped = true;
      ++skipped;
      continue;
    }
    todo.push_back(i);
  }

  // Execute + stream: completed records hit the disk from the worker thread
  // the moment they finish, so a killed run loses at most in-flight points.
  execute_points(points, todo, results, ctx.jobs,
                 /*keep_going=*/ctx.stats != nullptr, ctx.gate_traces.get(),
                 [&](std::size_t i) {
                   if (ctx.cache)
                     ctx.cache->put(ctx.scenario, keys[i], results[i],
                                    points[i].labels);
                 });

  // Merge + report: the results vector is indexed by point, independent of
  // completion order; stats aggregate across a scenario's sweeps.
  if (ctx.stats) {
    ctx.stats->points += points.size();
    ctx.stats->hits += hits;
    ctx.stats->skipped += skipped;
    ctx.stats->computed += todo.size();
    for (const std::size_t i : todo) {
      ctx.stats->copilot_solves += results[i].copilot_solves;
      if (results[i].error.empty()) continue;
      ++ctx.stats->failed;
      std::string labels;
      for (const auto& l : points[i].labels) {
        if (!labels.empty()) labels += ", ";
        labels += l;
      }
      ctx.stats->failures.push_back(
          (ctx.scenario.empty() ? std::string("sweep") : ctx.scenario) +
          " point #" + std::to_string(points[i].index) + " (" + labels +
          "): " + results[i].error);
    }
  }
  return results;
}

}  // namespace mixnet::exp
