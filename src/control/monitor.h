// All-to-all traffic monitor (§5.1).
//
// Tracks an EWMA of each (region, layer)'s inter-server demand matrix as
// training iterations execute. Its only reader is Copilot planning
// (TrainingConfig::use_copilot, §B.1), which rescales the smoothed matrix's
// columns toward the predicted expert loads; the controllers and TopoOpt plan
// from the observed demand directly. The paper notes Megatron-LM already
// collects these counts for on-demand all-to-all, so monitoring adds no
// overhead -- here it is simply fed by the gate simulator.
#pragma once

#include <map>
#include <utility>

#include "common/matrix.h"

namespace mixnet::control {

class TrafficMonitor {
 public:
  explicit TrafficMonitor(double ewma_weight = 0.5) : w_(ewma_weight) {}

  /// Record an observed inter-server demand matrix for a layer's all-to-all.
  void record(int region, int layer, const Matrix& demand);

  /// EWMA-smoothed demand, or nullptr if none.
  const Matrix* smoothed(int region, int layer) const;

  std::size_t observations() const { return n_obs_; }

 private:
  double w_;
  std::map<std::pair<int, int>, Matrix> ewma_;
  std::size_t n_obs_ = 0;
};

}  // namespace mixnet::control
