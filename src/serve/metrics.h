// SLO metrics pipeline for the serving subsystem (DESIGN.md §11).
//
// ServeSimulator::run() returns a ServeReport: per-request latency records
// plus control-plane telemetry (re-placement churn, OCS reconfiguration
// windows, migration pauses). slo_metrics() reduces it to the flat
// name->double map that rides in PointResult::extra — the result cache
// round-trips `extra` verbatim, so serving points cache with zero record
// format changes.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "serve/serve_config.h"

namespace mixnet::serve {

/// Latency record of one completed request.
struct RequestRecord {
  TimeNs arrival_ns = 0;
  TimeNs first_token_ns = 0;  ///< absolute completion of the prefill phase
  TimeNs finish_ns = 0;       ///< absolute emission of the last token
  int prompt_tokens = 0;
  int output_tokens = 0;

  /// Time to first token, queueing included.
  double ttft_ms() const { return ns_to_ms(first_token_ns - arrival_ns); }
  /// Mean time per output token after the first.
  double tpot_ms() const {
    const int decode_tokens = output_tokens > 1 ? output_tokens - 1 : 1;
    return ns_to_ms(finish_ns - first_token_ns) / decode_tokens;
  }
};

/// Everything one serving run produced.
struct ServeReport {
  std::vector<RequestRecord> records;  ///< completed requests, arrival order
  TimeNs makespan = 0;                 ///< last completion time
  int engine_steps = 0;
  // Hotspot -> re-placement loop telemetry.
  int hotspot_triggers = 0;
  int replacements = 0;     ///< re-placement events applied
  int experts_moved = 0;    ///< total expert migrations (placement churn)
  TimeNs migration_paused = 0;
  double peak_imbalance = 0.0;  ///< max windowed rank-load max/fair ratio
  /// Copilot least-squares solves: a host work counter, not a simulated
  /// outcome, so slo_metrics() leaves it out (0 when re-placement is off).
  std::size_t copilot_solves = 0;
  /// Packet hop arrivals the packet engine processed: a host work counter
  /// like copilot_solves (0 off the packet backend).
  std::size_t pkt_arrivals = 0;
  // OCS control-plane telemetry.
  int reconfigurations = 0;
  TimeNs reconfig_blocked = 0;  ///< unhidden reconfiguration time
};

/// Reduce a report to the PointResult::extra metric map: p50/p99 TTFT and
/// TPOT, goodput (completions per second of makespan that meet the fixed SLO
/// budget of 1000 ms TTFT and 250 ms TPOT), the SLO violation share, and the
/// control-loop counters. The ServeConfig parameter is unused; it stays only
/// because perfbench/harness passes it, until the benchmark change that
/// retires that harness (ROADMAP).
std::map<std::string, double> slo_metrics(const ServeReport& report,
                                          const ServeConfig& cfg);

}  // namespace mixnet::serve
