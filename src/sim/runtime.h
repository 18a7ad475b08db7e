// Framework-facing communication runtime (§6).
//
// The paper ports MixNet's collective runtime to the training framework by
// exposing torch.dist-style primitives (mixnet.all_to_all, mixnet.all_reduce).
// This facade provides the same surface over the simulated fabric: a
// Communicator represents a process group of servers; calls are synchronous
// from the caller's perspective (they run the event simulation to completion
// and return the elapsed communication time), which is how a training step
// written against this API experiences them.
//
// The OCS control plane is attached per region: before an all_to_all, the
// communicator consults its TopologyController exactly like the training
// simulator does (demand -> Algorithm 1 -> hide-window accounting).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "control/controller.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace mixnet::runtime {

struct RuntimeConfig {
  collective::EngineConfig engine;
  control::ControllerConfig controller;
};

class Communicator {
 public:
  /// A process group over `servers` (global indices) of `fabric`.
  Communicator(topo::Fabric& fabric, std::vector<int> servers,
               RuntimeConfig cfg = {});

  const std::vector<int>& servers() const { return servers_; }
  int size() const { return static_cast<int>(servers_.size()); }

  /// torch.dist-style all_to_all: `bytes`(i, j) from servers()[i] to
  /// servers()[j]. On MixNet fabrics this reconfigures the regional OCS
  /// first (hidden under `compute_window`) and uses the 5-step delegated
  /// transfer. Returns total elapsed time including any unhidden
  /// reconfiguration. Throws std::invalid_argument unless `bytes` is
  /// size() x size().
  TimeNs all_to_all(const Matrix& bytes, TimeNs compute_window = ms_to_ns(100));

  /// torch.dist-style all_reduce of `bytes_per_member` over the group
  /// (multi-ring on the packet fabric).
  TimeNs all_reduce(Bytes bytes_per_member);

  /// Point-to-point send to another group member (by group rank). Throws
  /// std::out_of_range for a rank outside [0, size()).
  TimeNs send(int src_rank, int dst_rank, Bytes bytes);

  /// Cumulative unhidden reconfiguration time incurred by this group.
  TimeNs reconfig_blocked() const { return blocked_; }
  int reconfigurations() const { return reconfigs_; }

 private:
  topo::Fabric& fabric_;
  std::vector<int> servers_;
  RuntimeConfig cfg_;
  sim::PhaseRunner runner_;
  std::unique_ptr<control::TopologyController> controller_;  // MixNet only
  TimeNs blocked_ = 0;
  int reconfigs_ = 0;
};

}  // namespace mixnet::runtime
