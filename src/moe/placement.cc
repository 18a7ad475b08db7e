#include "moe/placement.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mixnet::moe {

Placement::Placement(const ParallelismSpec& par, int gpus_per_server)
    : par_(par), gpus_per_server_(gpus_per_server) {
  const auto require_positive = [](const char* field, int value) {
    if (value < 1)
      throw std::invalid_argument(std::string("Placement: ") + field +
                                  " must be >= 1, got " + std::to_string(value));
  };
  require_positive("gpus_per_server", gpus_per_server_);
  require_positive("par.dp", par_.dp);
  require_positive("par.pp", par_.pp);
  require_positive("par.ep", par_.ep);
  require_positive("par.tp", par_.tp);
}

int Placement::total_servers() const {
  return (total_gpus() + gpus_per_server_ - 1) / gpus_per_server_;
}

int Placement::gpu_of(const GpuCoord& c) const {
  const auto in = [](int x, int degree) { return x >= 0 && x < degree; };
  if (!in(c.dp, par_.dp) || !in(c.pp, par_.pp) || !in(c.ep, par_.ep) ||
      !in(c.tp, par_.tp))
    throw std::out_of_range(
        "Placement::gpu_of: coordinate (dp, pp, ep, tp) = (" +
        std::to_string(c.dp) + ", " + std::to_string(c.pp) + ", " +
        std::to_string(c.ep) + ", " + std::to_string(c.tp) +
        ") is outside the degrees (" + std::to_string(par_.dp) + ", " +
        std::to_string(par_.pp) + ", " + std::to_string(par_.ep) + ", " +
        std::to_string(par_.tp) + ")");
  return ((c.dp * par_.pp + c.pp) * par_.ep + c.ep) * par_.tp + c.tp;
}

GpuCoord Placement::coord_of(int gpu) const {
  GpuCoord c;
  c.tp = gpu % par_.tp;
  gpu /= par_.tp;
  c.ep = gpu % par_.ep;
  gpu /= par_.ep;
  c.pp = gpu % par_.pp;
  gpu /= par_.pp;
  c.dp = gpu;
  return c;
}

std::vector<int> Placement::ep_group_servers(int dp, int pp) const {
  std::vector<int> servers;
  for (int ep = 0; ep < par_.ep; ++ep) {
    for (int tp = 0; tp < par_.tp; ++tp) {
      const int s = server_of_gpu(gpu_of({dp, pp, ep, tp}));
      if (servers.empty() || servers.back() != s) servers.push_back(s);
    }
  }
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  return servers;
}

int Placement::region_servers() const {
  const int group_gpus = par_.ep * par_.tp;
  return std::max(1, (group_gpus + gpus_per_server_ - 1) / gpus_per_server_);
}

std::vector<int> Placement::ep_rank_to_local_server(int dp, int pp) const {
  const std::vector<int> servers = ep_group_servers(dp, pp);
  std::vector<int> out(static_cast<std::size_t>(par_.ep), 0);
  for (int ep = 0; ep < par_.ep; ++ep) {
    const int s = server_of_gpu(gpu_of({dp, pp, ep, 0}));
    const auto it = std::find(servers.begin(), servers.end(), s);
    // Holds by construction: the rank's first TP GPU is one of the GPUs
    // ep_group_servers walks.
    if (it == servers.end())
      throw std::logic_error(
          "Placement::ep_rank_to_local_server: the server of (dp, pp, ep) = (" +
          std::to_string(dp) + ", " + std::to_string(pp) + ", " +
          std::to_string(ep) + ") is not in its EP group");
    out[static_cast<std::size_t>(ep)] = static_cast<int>(it - servers.begin());
  }
  return out;
}

}  // namespace mixnet::moe
