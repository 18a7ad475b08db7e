// Traced replay: re-runs one sweep point through each layer's public entry
// points, in the order TrainingSimulator / ServeSimulator call them, with a
// span around every call. The spans live here, in the benchmark, so the
// program under test carries no instrumentation; the replay proves it timed
// the same work by reproducing the simulator's results exactly.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "serve/metrics.h"
#include "serve/serve_config.h"
#include "sim/training_sim.h"

namespace perfbench {

/// Per-layer busy time and work counts of one traced replay.
struct Trace {
  std::map<std::string, double> busy_ms;  ///< span name -> summed ms
  std::map<std::string, double> counts;   ///< counter name -> total

  void count(const std::string& name, double n = 1.0) { counts[name] += n; }
  double span_total_ms() const;
};

/// Scoped span: adds its lifetime to trace.busy_ms[name].
class Span {
 public:
  Span(Trace& trace, const char* name)
      : trace_(trace), name_(name), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    trace_.busy_ms[name_] += std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

/// Construct and run `iterations` training iterations of `cfg` layer by
/// layer; returns what TrainingSimulator::run_iteration would. Throws
/// std::invalid_argument for configs the replay does not cover (Copilot
/// planning, failure injection).
std::vector<mixnet::sim::IterationResult> replay_training(
    const mixnet::sim::TrainingConfig& cfg, int iterations, Trace& trace);

/// Construct and drive one serving point layer by layer; returns what
/// ServeSimulator::run would.
mixnet::serve::ServeReport replay_serve(const mixnet::sim::TrainingConfig& cfg,
                                        const mixnet::serve::ServeConfig& scfg,
                                        Trace& trace);

}  // namespace perfbench
