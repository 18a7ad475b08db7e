// Serving subsystem tests (DESIGN.md §11): open-loop workload determinism,
// hotspot detection, the ServeSimulator end to end (including that Copilot
// runs only where its prediction is read), sweep-engine integration
// (jobs-independence of serve points), the serve-storm ablation, and
// cache-key sensitivity to ServeConfig fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/hotspot.h"
#include "exp/cache_key.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "moe/models.h"
#include "serve/metrics.h"
#include "serve/serve_config.h"
#include "serve/serve_sim.h"
#include "serve/workload.h"

namespace mixnet {
namespace {

using exp::PointResult;
using exp::SweepPoint;

serve::ServeConfig small_workload() {
  serve::ServeConfig scfg;
  scfg.n_requests = 12;
  scfg.arrival_rate_hz = 40.0;
  scfg.prompt_mu = 3.0;  // ~20-token prompts: keep simulation cheap
  scfg.prompt_sigma = 0.3;
  scfg.output_mu = 1.6;  // ~5 output tokens
  scfg.output_sigma = 0.3;
  return scfg;
}

/// A 2-server MixNet replica small enough for unit tests.
sim::TrainingConfig small_cluster() {
  sim::TrainingConfig cfg;
  cfg.model = moe::qwen_moe();
  cfg.model.n_blocks = 2;
  cfg.par.ep = 16;
  cfg.par.tp = 1;
  cfg.par.pp = 1;
  cfg.par.dp = 1;
  cfg.par.seq_len = 512;
  cfg.par.micro_batch = 1;
  cfg.par.n_microbatches = 1;
  cfg.par_overridden = true;
  cfg.fabric_kind = topo::FabricKind::kMixNet;
  cfg.warmup_iterations = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Open-loop workload generation.

TEST(Workload, SameSeedIsBitIdentical) {
  const serve::ServeConfig scfg = small_workload();
  const auto a = serve::generate_workload(scfg, 7);
  const auto b = serve::generate_workload(scfg, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]) << i;
}

TEST(Workload, DifferentSeedsDiffer) {
  const serve::ServeConfig scfg = small_workload();
  const auto a = serve::generate_workload(scfg, 7);
  const auto b = serve::generate_workload(scfg, 8);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Workload, ArrivalsAreSortedAndTokensBounded) {
  serve::ServeConfig scfg = small_workload();
  scfg.n_requests = 64;
  const auto trace = serve::generate_workload(scfg, 3);
  ASSERT_EQ(trace.size(), 64u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i) {
      EXPECT_GE(trace[i].arrival_ns, trace[i - 1].arrival_ns);
    }
    EXPECT_GE(trace[i].prompt_tokens, 1);
    EXPECT_LE(trace[i].prompt_tokens, 8192);
    EXPECT_GE(trace[i].output_tokens, 1);
    EXPECT_LE(trace[i].output_tokens, 1024);
  }
}

TEST(Workload, BurstShapeConcentratesArrivals) {
  serve::ServeConfig scfg = small_workload();
  scfg.shape = serve::ArrivalShape::kBurst;
  scfg.arrival_rate_hz = 10.0;
  scfg.burst_factor = 8.0;
  scfg.n_requests = 80;
  const auto trace = serve::generate_workload(scfg, 11);
  std::size_t in_burst = 0;
  for (const auto& r : trace) {
    const double t = ns_to_sec(r.arrival_ns);
    if (t >= 1.0 && t < 3.0) ++in_burst;
  }
  // Peak rate is 8x base over the fixed [1, 3) s storm window: the burst
  // must dominate.
  EXPECT_GT(in_burst, trace.size() / 2);
}

TEST(Workload, ArrivalRateShapes) {
  serve::ServeConfig scfg;
  scfg.arrival_rate_hz = 10.0;
  scfg.burst_factor = 4.0;
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 0.5), 10.0);  // steady

  scfg.shape = serve::ArrivalShape::kDiurnal;  // fixed 8 s period
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 0.0), 10.0);   // trough
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 4.0), 40.0);   // peak

  scfg.shape = serve::ArrivalShape::kBurst;  // fixed [1, 3) s storm window
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 0.5), 10.0);   // before
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 2.0), 40.0);   // inside
  EXPECT_DOUBLE_EQ(serve::arrival_rate_at(scfg, 3.5), 10.0);   // after
}

// ---------------------------------------------------------------------------
// Hotspot detection.

TEST(HotspotDetector, UniformLoadNeverTrips) {
  control::HotspotDetector det({4, 1.35, 8});
  const std::vector<double> uniform(8, 1.0);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(det.record(uniform));
  EXPECT_EQ(det.triggers(), 0);
}

TEST(HotspotDetector, SkewTripsOnlyAfterWindowFills) {
  control::HotspotDetector det({4, 1.35, 8});
  std::vector<double> skew(8, 1.0);
  skew[0] = 4.0;  // peak/fair = 4 / (11/8) ~ 2.9
  EXPECT_FALSE(det.record(skew));  // window 1/4
  EXPECT_FALSE(det.record(skew));  // window 2/4
  EXPECT_FALSE(det.record(skew));  // window 3/4
  EXPECT_TRUE(det.record(skew));   // window full -> trigger
  EXPECT_GT(det.imbalance(), 1.35);
  EXPECT_EQ(det.triggers(), 1);
}

TEST(HotspotDetector, CooldownSuppressesRetrigger) {
  control::HotspotDetector det({2, 1.35, 5});
  std::vector<double> skew(4, 1.0);
  skew[0] = 8.0;
  int triggers = 0;
  for (int i = 0; i < 14; ++i) triggers += det.record(skew);
  // Window fills at step 2 (first trigger); cooldown 5 spaces the rest:
  // steps 2, 8 (wait, cooldown decrements on suppressed steps) -> exactly
  // the detector's triggers() count either way.
  EXPECT_EQ(triggers, det.triggers());
  EXPECT_GE(triggers, 2);
  EXPECT_LE(triggers, 3);
}

// ---------------------------------------------------------------------------
// ServeSimulator end to end.

TEST(ServeSimulator, CompletesEveryRequest) {
  const sim::TrainingConfig cluster = small_cluster();
  const serve::ServeConfig scfg = small_workload();
  serve::ServeSimulator sim(cluster, scfg);
  const serve::ServeReport report = sim.run();
  ASSERT_EQ(report.records.size(), 12u);
  for (const auto& rec : report.records) {
    EXPECT_GT(rec.first_token_ns, rec.arrival_ns);
    EXPECT_GE(rec.finish_ns, rec.first_token_ns);
    EXPECT_GT(rec.ttft_ms(), 0.0);
    EXPECT_GE(rec.tpot_ms(), 0.0);
  }
  EXPECT_GT(report.engine_steps, 0);
  EXPECT_GT(report.makespan, 0);
  const auto metrics = serve::slo_metrics(report, scfg);
  EXPECT_DOUBLE_EQ(metrics.at("completed"), 12.0);
  EXPECT_GT(metrics.at("goodput_rps"), 0.0);
  EXPECT_GE(metrics.at("ttft_p99_ms"), metrics.at("ttft_p50_ms"));
}

// Serve builds its fabric exactly as training does, so a serve point's
// core_model takes effect: an analytic core on the packet backend is
// rejected by both simulators instead of silently running an explicit core.
TEST(ServeSimulator, AnalyticCoreOnPacketBackendThrowsLikeTraining) {
  sim::TrainingConfig cluster = small_cluster();
  cluster.core_model = topo::CoreModel::kAnalytic;
  cluster.backend = net::NetBackend::kPacket;
  EXPECT_THROW(serve::ServeSimulator(cluster, small_workload()), std::invalid_argument);
  EXPECT_THROW(sim::TrainingSimulator{cluster}, std::invalid_argument);
}

// Both simulators validate the cluster through the same code (the Placement
// ctor and sim::build_cluster) and name the bad field: a zero GPU count or
// parallel degree used to crash with SIGFPE in a Release build, and a zero
// micro-batch size or count used to return an iteration with no tokens.
TEST(ServeSimulator, InvalidClusterConfigThrowsLikeTraining) {
  using Breaker = void (*)(sim::TrainingConfig&);
  const std::vector<std::pair<std::string, Breaker>> breakers = {
      {"gpus_per_server", [](sim::TrainingConfig& c) { c.gpus_per_server = 0; }},
      {"par.dp", [](sim::TrainingConfig& c) { c.par.dp = 0; }},
      {"par.pp", [](sim::TrainingConfig& c) { c.par.pp = 0; }},
      {"par.ep", [](sim::TrainingConfig& c) { c.par.ep = 0; }},
      {"par.tp", [](sim::TrainingConfig& c) { c.par.tp = 0; }},
      {"par.micro_batch", [](sim::TrainingConfig& c) { c.par.micro_batch = 0; }},
      {"par.n_microbatches", [](sim::TrainingConfig& c) { c.par.n_microbatches = 0; }},
  };
  const auto message_of = [](const auto& construct) -> std::string {
    try {
      construct();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no invalid_argument";
  };
  for (const auto& [field, breaker] : breakers) {
    sim::TrainingConfig cluster = small_cluster();
    breaker(cluster);
    EXPECT_NE(message_of([&] { serve::ServeSimulator s(cluster, small_workload()); })
                  .find(field),
              std::string::npos)
        << field;
    EXPECT_NE(message_of([&] { sim::TrainingSimulator t(cluster); }).find(field),
              std::string::npos)
        << field;
  }
}

TEST(ServeSimulator, ReplacementOffNeverMovesExperts) {
  sim::TrainingConfig cluster = small_cluster();
  serve::ServeConfig scfg = small_workload();
  scfg.replacement_on = false;
  scfg.hotspot_threshold = 1.0;  // trip as easily as possible
  scfg.hotspot_window = 1;
  serve::ServeSimulator sim(cluster, scfg);
  const serve::ServeReport report = sim.run();
  EXPECT_EQ(report.replacements, 0);
  EXPECT_EQ(report.experts_moved, 0);
  EXPECT_EQ(report.migration_paused, 0);
  // The off arm still observes: triggers are telemetry, not actions.
  EXPECT_GT(report.hotspot_triggers, 0);
  // ... and builds no Copilot, whose predictions only an action reads.
  EXPECT_EQ(report.copilot_solves, 0u);
}

// Feeding the Copilots changes nothing simulated until the loop acts: with a
// detector that never trips, the off and on arms serve identical records,
// and only the on arm pays for the solves.
TEST(ServeSimulator, CopilotFeedIsInvisibleUntilTheLoopActs) {
  const sim::TrainingConfig cluster = small_cluster();
  serve::ServeConfig off = small_workload();
  off.output_mu = 3.0;          // ~20 output tokens: enough steps to solve
  off.hotspot_threshold = 1e9;  // never trips
  serve::ServeConfig on = off;
  on.replacement_on = true;
  const serve::ServeReport a = serve::ServeSimulator(cluster, off).run();
  const serve::ServeReport b = serve::ServeSimulator(cluster, on).run();
  EXPECT_EQ(a.hotspot_triggers, 0);
  EXPECT_EQ(b.hotspot_triggers, 0);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const serve::RequestRecord& x = a.records[i];
    const serve::RequestRecord& y = b.records[i];
    EXPECT_EQ(x.arrival_ns, y.arrival_ns) << i;
    EXPECT_EQ(x.first_token_ns, y.first_token_ns) << i;
    EXPECT_EQ(x.finish_ns, y.finish_ns) << i;
    EXPECT_EQ(x.prompt_tokens, y.prompt_tokens) << i;
    EXPECT_EQ(x.output_tokens, y.output_tokens) << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(serve::slo_metrics(a, off), serve::slo_metrics(b, on));
  EXPECT_EQ(a.copilot_solves, 0u);
  EXPECT_GT(b.copilot_solves, 0u);
}

// ---------------------------------------------------------------------------
// Sweep-engine integration: serve points are jobs-independent.

std::vector<SweepPoint> serve_points() {
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < 3; ++i) {
    SweepPoint p;
    p.index = i;
    p.labels = {"pt" + std::to_string(i)};
    p.cfg = small_cluster();
    p.cfg.seed = exp::derive_point_seed(42, i);
    serve::ServeConfig scfg = small_workload();
    scfg.arrival_rate_hz = 20.0 + 10.0 * static_cast<double>(i);
    p.serve = scfg;
    points.push_back(std::move(p));
  }
  return points;
}

TEST(ServeSweep, ResultsAreIdenticalAcrossJobCounts) {
  const auto points = serve_points();
  const auto serial = exp::run_sweep(points, 1);
  const auto threaded = exp::run_sweep(points, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(threaded[i].ok());
    // Bit-identical metric maps: every point owns its own simulator and
    // derives its seed from (base, index), so thread scheduling is
    // invisible.
    EXPECT_EQ(serial[i].extra, threaded[i].extra) << i;
    EXPECT_EQ(serial[i].iter_sec, threaded[i].iter_sec) << i;
  }
  // Distinct rates must actually produce distinct workloads.
  EXPECT_NE(serial[0].extra.at("makespan_s"), serial[1].extra.at("makespan_s"));
}

// ---------------------------------------------------------------------------
// The serve-storm ablation: only its re-placement-on arm runs Copilot, and
// that arm still acts on the storm.

TEST(ServeStorm, ReplacementOnArmStillMovesExperts) {
  const exp::ScenarioInfo* storm =
      exp::ScenarioRegistry::paper().find("serve-storm");
  ASSERT_NE(storm, nullptr);
  exp::SweepStats stats;
  exp::RunContext ctx;
  ctx.stats = &stats;
  const exp::ScenarioResult res = storm->run(ctx);
  ASSERT_EQ(stats.failed, 0u);
  ASSERT_EQ(res.tables.size(), 1u);
  const auto& rows = res.tables.front().rows();
  ASSERT_EQ(rows.size(), 2u);
  constexpr std::size_t kReplacements = 5;
  EXPECT_EQ(rows[0][kReplacements].value(), 0.0);  // re-placement off
  EXPECT_GT(rows[1][kReplacements].value(), 0.0);  // re-placement on
  EXPECT_GT(stats.copilot_solves, 0u);
}

// ---------------------------------------------------------------------------
// Cache keys see every ServeConfig field.

TEST(ServeCacheKey, ServeDiscriminatorAndFieldsChangeTheKey) {
  SweepPoint plain;
  plain.cfg = small_cluster();

  SweepPoint serving = plain;
  serving.serve = small_workload();

  const std::string k_plain = exp::point_cache_key("s", plain);
  const std::string k_serve = exp::point_cache_key("s", serving);
  EXPECT_NE(k_plain, k_serve);

  SweepPoint tweaked = serving;
  tweaked.serve->arrival_rate_hz += 1.0;
  EXPECT_NE(exp::point_cache_key("s", tweaked), k_serve);

  tweaked = serving;
  tweaked.serve->replacement_on = !tweaked.serve->replacement_on;
  EXPECT_NE(exp::point_cache_key("s", tweaked), k_serve);

  tweaked = serving;
  tweaked.serve->shape = serve::ArrivalShape::kDiurnal;
  EXPECT_NE(exp::point_cache_key("s", tweaked), k_serve);

  // Same config, same key: the digest is deterministic.
  SweepPoint again = serving;
  EXPECT_EQ(exp::point_cache_key("s", again), k_serve);
}

}  // namespace
}  // namespace mixnet
