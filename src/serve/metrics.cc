#include "serve/metrics.h"

#include "common/stats.h"

namespace mixnet::serve {

namespace {
constexpr double kTtftSloMs = 1000.0;  ///< time-to-first-token target
constexpr double kTpotSloMs = 250.0;   ///< time-per-output-token target
}  // namespace

std::map<std::string, double> slo_metrics(const ServeReport& report,
                                          const ServeConfig&) {
  std::map<std::string, double> m;
  std::vector<double> ttft, tpot;
  ttft.reserve(report.records.size());
  tpot.reserve(report.records.size());
  std::size_t good = 0;
  for (const auto& r : report.records) {
    ttft.push_back(r.ttft_ms());
    tpot.push_back(r.tpot_ms());
    if (r.ttft_ms() <= kTtftSloMs && r.tpot_ms() <= kTpotSloMs)
      ++good;
  }
  const double makespan_s = ns_to_sec(report.makespan);
  const std::size_t n = report.records.size();
  m["completed"] = static_cast<double>(n);
  m["makespan_s"] = makespan_s;
  m["ttft_p50_ms"] = ttft.empty() ? 0.0 : percentile(ttft, 0.50);
  m["ttft_p99_ms"] = ttft.empty() ? 0.0 : percentile(ttft, 0.99);
  m["tpot_p50_ms"] = tpot.empty() ? 0.0 : percentile(tpot, 0.50);
  m["tpot_p99_ms"] = tpot.empty() ? 0.0 : percentile(tpot, 0.99);
  m["goodput_rps"] = makespan_s > 0.0 ? good / makespan_s : 0.0;
  m["slo_violation_share"] =
      n > 0 ? static_cast<double>(n - good) / static_cast<double>(n) : 0.0;
  m["engine_steps"] = report.engine_steps;
  m["hotspot_triggers"] = report.hotspot_triggers;
  m["replacements"] = report.replacements;
  m["experts_moved"] = report.experts_moved;
  m["migration_paused_ms"] = ns_to_ms(report.migration_paused);
  m["peak_imbalance"] = report.peak_imbalance;
  m["reconfigurations"] = report.reconfigurations;
  m["reconfig_blocked_ms"] = ns_to_ms(report.reconfig_blocked);
  return m;
}

}  // namespace mixnet::serve
