// Inference-serving scenarios (DESIGN.md §11): the `serve` group drives the
// ServeSimulator over open-loop request traces on a MixNet-fabric replica
// and reports the SLO metric pipeline (p50/p99 TTFT, TPOT, goodput).
//
//   serve-steady   steady Poisson arrival-rate sweep (per-point seeds)
//   serve-diurnal  diurnal burst-factor sweep (paired seed across factors)
//   serve-storm    hotspot-storm ablation: expert re-placement off vs on,
//                  identical trace and gate sequence (paired seed), with a
//                  registered check asserting the on arm measurably improves
//                  p99 TTFT and actually moved experts.
//
// Points are built directly as SweepPoints (ServeConfig rides in
// SweepPoint::serve); the steady sweep derives per-point seeds from
// (base, index) exactly like SweepSpec's kPerPoint policy, so sharded and
// multi-job runs stay bit-identical.
#include <cmath>
#include <utility>
#include <vector>

#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace mixnet::exp {
namespace {

constexpr std::uint64_t kServeBaseSeed = 42;

/// The serving replica: Qwen-MoE (64 experts — 4 per EP rank, so
/// re-placement has slack to balance with) truncated to a 4-block stage on
/// 4 MixNet servers (EP16 x TP2), the serving analogue of the fig10
/// testbed-scale clusters.
sim::TrainingConfig serve_cluster() {
  sim::TrainingConfig cfg;
  cfg.model = moe::qwen_moe();
  cfg.model.n_blocks = 4;
  cfg.par.ep = 16;
  cfg.par.tp = 2;
  cfg.par.pp = 1;
  cfg.par.dp = 1;
  cfg.par.seq_len = 4096;
  cfg.par.micro_batch = 1;
  cfg.par.n_microbatches = 1;
  cfg.par_overridden = true;
  cfg.fabric_kind = topo::FabricKind::kMixNet;
  cfg.nic_gbps = 400.0;
  cfg.warmup_iterations = 32;
  return cfg;
}

SweepPoint serve_point(std::size_t index, std::string label,
                       sim::TrainingConfig cfg,
                       const serve::ServeConfig& scfg, std::uint64_t seed) {
  SweepPoint p;
  p.index = index;
  p.labels = {std::move(label)};
  p.cfg = std::move(cfg);
  p.cfg.seed = seed;
  p.serve = scfg;
  return p;
}

double metric(const PointResult& r, const char* key) {
  const auto it = r.extra.find(key);
  return it == r.extra.end() ? 0.0 : it->second;
}

void add_slo_row(ResultTable& table, const Cell& head, const PointResult& r) {
  table.add_row({head, Cell::num(metric(r, "ttft_p50_ms"), 1),
                 Cell::num(metric(r, "ttft_p99_ms"), 1),
                 Cell::num(metric(r, "tpot_p50_ms"), 2),
                 Cell::num(metric(r, "goodput_rps"), 2),
                 Cell::num(100.0 * metric(r, "slo_violation_share"), 1, "", "%")});
}

// ---------------------------------------------------------------------------
// serve-steady: open-loop Poisson arrival-rate sweep.

ScenarioResult run_serve_steady(const RunContext& ctx) {
  const std::vector<double> rates = {4.0, 8.0, 16.0, 32.0};
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    serve::ServeConfig scfg;
    scfg.arrival_rate_hz = rates[i];
    // Per-point seeds from (base, index), the kPerPoint discipline: point
    // results are independent of grid slicing, sharding, and job count.
    points.push_back(serve_point(i, printf_str("%g req/s", rates[i]),
                                 serve_cluster(), scfg,
                                 derive_point_seed(kServeBaseSeed, i)));
  }
  const auto results = run_sweep(points, ctx);

  ScenarioResult out;
  out.name = "serve-steady";
  ResultTable table("Serve A", "Steady Poisson serving: SLO metrics vs load",
                    {"rate (req/s)", "p50 TTFT (ms)", "p99 TTFT (ms)",
                     "p50 TPOT (ms)", "goodput (req/s)", "SLO viol"},
                    15);
  for (std::size_t i = 0; i < points.size(); ++i)
    add_slo_row(table, Cell::num(rates[i], 0), results[i]);
  out.tables.push_back(std::move(table));
  out.note =
      "Open-loop law: tail TTFT grows with offered load while goodput\n"
      "tracks the arrival rate until the engine saturates.";
  return out;
}

std::vector<std::string> check_serve_steady(const ScenarioResult& res) {
  std::vector<std::string> bad;
  if (res.tables.empty()) {
    bad.emplace_back("serve-steady: no tables produced");
    return bad;
  }
  const auto& t = res.tables.front();
  if (t.rows().size() < 3) {
    bad.push_back(printf_str("%s: fewer than 3 rows", t.title().c_str()));
    return bad;
  }
  for (const auto& row : t.rows()) {
    if (row.size() < 6) {
      bad.push_back(printf_str("%s: row with fewer than 6 columns",
                               t.title().c_str()));
      return bad;
    }
    const double p50 = row[1].value(), p99 = row[2].value();
    if (!(p99 > 0.0) || !std::isfinite(p99) || !(p50 > 0.0))
      bad.push_back(printf_str("%s @%g req/s: non-positive TTFT percentile",
                               t.title().c_str(), row[0].value()));
    if (p99 + 1e-9 < p50)
      bad.push_back(printf_str("%s @%g req/s: p99 TTFT below p50",
                               t.title().c_str(), row[0].value()));
    if (!(row[4].value() > 0.0))
      bad.push_back(printf_str("%s @%g req/s: non-positive goodput",
                               t.title().c_str(), row[0].value()));
  }
  // Queueing shape: the heaviest load's tail is no better than the lightest.
  const double first = t.rows().front()[2].value();
  const double last = t.rows().back()[2].value();
  if (!(last >= first))
    bad.push_back(printf_str(
        "%s: p99 TTFT shrinks with load (%.1f ms -> %.1f ms)",
        t.title().c_str(), first, last));
  return bad;
}

// ---------------------------------------------------------------------------
// serve-diurnal: burstiness sweep under the diurnal envelope.

ScenarioResult run_serve_diurnal(const RunContext& ctx) {
  const std::vector<double> factors = {1.0, 2.0, 4.0};
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    serve::ServeConfig scfg;
    scfg.shape = serve::ArrivalShape::kDiurnal;
    scfg.arrival_rate_hz = 12.0;
    scfg.burst_factor = factors[i];
    // One shared seed: the factor axis is a paired comparison over one
    // underlying random stream, not independent replications.
    points.push_back(serve_point(i, printf_str("x%g", factors[i]),
                                 serve_cluster(), scfg, kServeBaseSeed));
  }
  const auto results = run_sweep(points, ctx);

  ScenarioResult out;
  out.name = "serve-diurnal";
  ResultTable table("Serve B",
                    "Diurnal burst trace: SLO metrics vs peak/base factor",
                    {"peak/base", "p50 TTFT (ms)", "p99 TTFT (ms)",
                     "p50 TPOT (ms)", "goodput (req/s)", "SLO viol"},
                    15);
  for (std::size_t i = 0; i < points.size(); ++i)
    add_slo_row(table, Cell::num(factors[i], 0), results[i]);
  out.tables.push_back(std::move(table));
  out.note =
      "Burstier arrivals concentrate queueing into the diurnal peak:\n"
      "tail TTFT degrades with the peak/base factor.";
  return out;
}

std::vector<std::string> check_serve_diurnal(const ScenarioResult& res) {
  std::vector<std::string> bad;
  if (res.tables.empty()) {
    bad.emplace_back("serve-diurnal: no tables produced");
    return bad;
  }
  const auto& t = res.tables.front();
  if (t.rows().size() < 2) {
    bad.push_back(printf_str("%s: fewer than 2 rows", t.title().c_str()));
    return bad;
  }
  for (const auto& row : t.rows()) {
    if (row.size() < 6) {
      bad.push_back(printf_str("%s: row with fewer than 6 columns",
                               t.title().c_str()));
      return bad;
    }
    if (!(row[2].value() > 0.0) || !std::isfinite(row[2].value()))
      bad.push_back(printf_str("%s x%g: non-positive p99 TTFT",
                               t.title().c_str(), row[0].value()));
  }
  const double calm = t.rows().front()[2].value();
  const double stormy = t.rows().back()[2].value();
  if (!(stormy >= calm))
    bad.push_back(printf_str(
        "%s: p99 TTFT improves with burstiness (%.1f ms -> %.1f ms)",
        t.title().c_str(), calm, stormy));
  return bad;
}

// ---------------------------------------------------------------------------
// serve-storm: hotspot-storm ablation, re-placement off vs on.

ScenarioResult run_serve_storm(const RunContext& ctx) {
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < 2; ++i) {
    serve::ServeConfig scfg;
    scfg.shape = serve::ArrivalShape::kBurst;
    scfg.arrival_rate_hz = 16.0;
    scfg.burst_factor = 8.0;
    scfg.n_requests = 120;
    // Long prompts make the storm prefill-bound: the burst peak exceeds the
    // engine's prefill service rate, so queueing amplifies any per-step
    // slowdown from expert-load skew into the TTFT tail.
    scfg.prompt_mu = 7.0;
    scfg.replacement_on = i == 1;
    sim::TrainingConfig cfg = serve_cluster();
    // Storm traffic: strong per-rank preferences over moderately sparse
    // popularity — several warm experts co-located on one rank, the regime
    // re-placement can fix (a lone monster expert is irreducible). Serving
    // request mixes drift on minutes timescales, far slower than the
    // training defaults tuned to per-iteration token noise, so the hotspot
    // is persistent enough for a cooldown-paced control loop to act on.
    // Keep the training-default stationary preference spread
    // (sigma/sqrt(1-retention^2) = 2.2 logits) but decorrelate 20x slower.
    cfg.gate.personalization = 0.9;
    cfg.gate.pref_retention = 0.999;
    cfg.gate.pref_drift_sigma = 0.1;
    // Identical trace and gate sequence on both arms (paired ablation); the
    // only difference is whether the control loop acts.
    points.push_back(serve_point(i, i == 0 ? "re-placement off" : "re-placement on",
                                 std::move(cfg), scfg, kServeBaseSeed));
  }
  const auto results = run_sweep(points, ctx);

  ScenarioResult out;
  out.name = "serve-storm";
  ResultTable table("Serve C",
                    "Hotspot storm: Copilot expert re-placement ablation",
                    {"arm", "p99 TTFT (ms)", "p50 TTFT (ms)",
                     "goodput (req/s)", "SLO viol", "replacements",
                     "experts moved", "reconfig blocked (ms)"},
                    14);
  for (const auto& r : results) {
    const std::size_t i = r.index;
    table.add_row(
        {points[i].labels[0], Cell::num(metric(r, "ttft_p99_ms"), 1),
         Cell::num(metric(r, "ttft_p50_ms"), 1),
         Cell::num(metric(r, "goodput_rps"), 2),
         Cell::num(100.0 * metric(r, "slo_violation_share"), 1, "", "%"),
         Cell::integer(static_cast<long long>(metric(r, "replacements"))),
         Cell::integer(static_cast<long long>(metric(r, "experts_moved"))),
         Cell::num(metric(r, "reconfig_blocked_ms"), 1)});
  }
  for (const auto& r : results)
    table.add_footer(printf_str(
        "%s: %d hotspot triggers, peak rank imbalance %.2fx fair",
        points[r.index].labels[0].c_str(),
        static_cast<int>(metric(r, "hotspot_triggers")),
        metric(r, "peak_imbalance")));
  out.tables.push_back(std::move(table));
  out.note =
      "Re-placement pays migration + OCS reconfiguration once, then serves\n"
      "the storm on balanced ranks: p99 TTFT must improve vs the off arm.";
  return out;
}

std::vector<std::string> check_serve_storm(const ScenarioResult& res) {
  std::vector<std::string> bad;
  if (res.tables.empty()) {
    bad.emplace_back("serve-storm: no tables produced");
    return bad;
  }
  const auto& t = res.tables.front();
  if (t.rows().size() != 2) {
    bad.push_back(printf_str("%s: expected 2 rows (off/on), got %zu",
                             t.title().c_str(), t.rows().size()));
    return bad;
  }
  for (const auto& row : t.rows())
    if (row.size() < 8) {
      bad.push_back(printf_str("%s: row with fewer than 8 columns",
                               t.title().c_str()));
      return bad;
    }
  const auto& off = t.rows()[0];
  const auto& on = t.rows()[1];
  for (const auto* row : {&off, &on})
    if (!((*row)[1].value() > 0.0) || !std::isfinite((*row)[1].value()))
      bad.push_back(printf_str("%s: non-positive p99 TTFT",
                               t.title().c_str()));
  // The control loop must have acted on the on arm and only there.
  if (off[5].value() != 0.0)
    bad.push_back(printf_str("%s: off arm performed %g re-placements",
                             t.title().c_str(), off[5].value()));
  if (!(on[5].value() >= 1.0) || !(on[6].value() > 0.0))
    bad.push_back(printf_str(
        "%s: on arm never re-placed (replacements=%g, moved=%g)",
        t.title().c_str(), on[5].value(), on[6].value()));
  // The acceptance bar: re-placement measurably improves p99 TTFT (>=5%).
  if (!(on[1].value() < 0.95 * off[1].value()))
    bad.push_back(printf_str(
        "%s: re-placement fails to improve p99 TTFT by >=5%% "
        "(off %.1f ms vs on %.1f ms)",
        t.title().c_str(), off[1].value(), on[1].value()));
  return bad;
}

}  // namespace

void register_serve_scenarios(ScenarioRegistry& r) {
  r.add({"serve-steady", "Serving A",
         "Open-loop Poisson serving: p50/p99 TTFT, TPOT, goodput vs load",
         run_serve_steady, check_serve_steady, "serve"});
  r.add({"serve-diurnal", "Serving B",
         "Diurnal burst trace: SLO degradation vs peak/base factor",
         run_serve_diurnal, check_serve_diurnal, "serve"});
  r.add({"serve-storm", "Serving C",
         "Hotspot storm: online Copilot expert re-placement off vs on",
         run_serve_storm, check_serve_storm, "serve"});
}

}  // namespace mixnet::exp
