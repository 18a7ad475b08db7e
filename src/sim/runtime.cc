#include "sim/runtime.h"

#include <stdexcept>
#include <string>

namespace mixnet::runtime {

Communicator::Communicator(topo::Fabric& fabric, std::vector<int> servers,
                           RuntimeConfig cfg)
    : fabric_(fabric),
      servers_(std::move(servers)),
      cfg_(cfg),
      runner_(fabric, cfg.engine) {
  if (servers_.empty()) throw std::invalid_argument("empty process group");
  const bool mixnet = fabric_.config().kind == topo::FabricKind::kMixNet ||
                      fabric_.config().kind == topo::FabricKind::kMixNetOpticalIO;
  if (mixnet) {
    const int region = fabric_.region_of(servers_.front());
    if (fabric_.region_servers(region) == servers_) {
      controller_ = std::make_unique<control::TopologyController>(
          fabric_, region, cfg_.controller);
    }
  }
}

TimeNs Communicator::all_to_all(const Matrix& bytes, TimeNs compute_window) {
  if (bytes.rows() != servers_.size() || bytes.cols() != servers_.size())
    throw std::invalid_argument(
        "Communicator::all_to_all: demand is " + std::to_string(bytes.rows()) +
        "x" + std::to_string(bytes.cols()) + " but the group has " +
        std::to_string(servers_.size()) + " ranks");
  TimeNs blocked = 0;
  if (controller_) {
    const auto outcome = controller_->prepare(bytes, compute_window);
    blocked = outcome.blocked;
    if (outcome.reconfigured) ++reconfigs_;
    blocked_ += blocked;
  }
  return blocked + runner_.ep_all_to_all(servers_, bytes);
}

TimeNs Communicator::all_reduce(Bytes bytes_per_member) {
  return runner_.all_reduce(servers_, bytes_per_member);
}

TimeNs Communicator::send(int src_rank, int dst_rank, Bytes bytes) {
  for (const int rank : {src_rank, dst_rank})
    if (rank < 0 || static_cast<std::size_t>(rank) >= servers_.size())
      throw std::out_of_range("Communicator::send: rank " + std::to_string(rank) +
                              " outside a group of " +
                              std::to_string(servers_.size()) + " ranks");
  return runner_.send(servers_[static_cast<std::size_t>(src_rank)],
                      servers_[static_cast<std::size_t>(dst_rank)], bytes);
}

}  // namespace mixnet::runtime
