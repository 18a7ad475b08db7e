// Benchmark workloads: seeded sweep points generated through the public exp
// API, the output checks each workload's results must pass, and the digest
// that pins its simulated results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<mixnet::exp::SweepPoint> points;
  /// Points the traced run replays layer by layer (indices into points).
  std::vector<std::size_t> replay;
};

/// Every workload name, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Generate a workload's points from its seed; throws std::invalid_argument
/// on an unknown name. The same (name, seed) always yields the same points.
Workload make_workload(const std::string& name, std::uint64_t seed);

struct CheckResult {
  std::vector<bool> bad;              ///< per point: failed a check
  std::vector<std::string> messages;  ///< one line per violation
};

/// Per-point validity (completed, finite, positive simulated time) plus the
/// workload's structural relations. A violated relation marks every point
/// that took part in it.
CheckResult check_outputs(const Workload& w,
                          const std::vector<mixnet::exp::PointResult>& results);

/// 32-hex digest over every point's simulated results (the result-cache
/// record text, which round-trips every field bit-exactly).
std::string sim_digest(const Workload& w,
                       const std::vector<mixnet::exp::PointResult>& results);

}  // namespace perfbench
