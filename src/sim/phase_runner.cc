#include "sim/phase_runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/hash.h"
#include "eventsim/simulator.h"
#include "pkt/transport.h"

namespace mixnet::sim {

namespace {
std::uint64_t bytes_hash(Bytes b) {
  return hash64(&b, 1);
}
}  // namespace

PhaseRunner::PhaseRunner(topo::Fabric& fabric, collective::EngineConfig ecfg,
                         std::size_t cache_capacity, net::NetBackend backend,
                         pkt::PacketConfig pkt)
    : fabric_(fabric),
      ecfg_(ecfg),
      backend_(backend),
      pkt_(pkt),
      router_(fabric.network(), /*cache_capacity=*/512,
              /*allow_server_transit=*/fabric.config().kind ==
                  topo::FabricKind::kTopoOpt),
      cache_capacity_(cache_capacity) {
  // The packet engine walks node-contiguous hops; analytic-core paths skip
  // the collapsed core entirely, so the combination cannot be simulated.
  if (fabric.config().core_model == topo::CoreModel::kAnalytic &&
      backend == net::NetBackend::kPacket)
    throw std::invalid_argument(
        "PhaseRunner: CoreModel::kAnalytic requires the analytic or flow "
        "backend; rebuild the fabric with CoreModel::kExplicit for --backend "
        "packet");
  // Stripe across the NICs a server actually points at the packet fabric
  // (collectives open one QP/channel per NIC), capped to keep flow counts
  // tractable on high-radix domains.
  const auto& cfg = fabric.config();
  const int eps_nics = fabric.has_eps() && fabric.has_circuits()
                           ? cfg.eps_nics
                           : cfg.nics_per_server;
  ecfg_.eps_stripes = std::clamp(eps_nics, 1, 8);
  ecfg_.allreduce_rings = std::clamp(eps_nics, 1, 4);
}

void PhaseRunner::set_relays(const std::vector<control::RelayRule>& relays) {
  relays_ = relays;
  if (!cache_.empty()) ++invalidations_;
  cache_.clear();
  lru_.clear();
}

PhaseCacheStats PhaseRunner::stats() const {
  PhaseCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.invalidations = invalidations_;
  s.entries = cache_.size();
  return s;
}

std::size_t PhaseRunner::CacheKeyHash::operator()(const CacheKey& k) const {
  std::uint64_t h = hash64_mix(kHash64Seed, static_cast<std::uint64_t>(k.kind));
  h = hash64_mix(h, k.epoch);
  h = hash64_mix(h, k.demand_hash);
  return static_cast<std::size_t>(
      hash64(k.participants.data(), k.participants.size(), h));
}

template <typename LaunchFn>
TimeNs PhaseRunner::run_phase(const char* label, LaunchFn&& launch) {
  eventsim::Simulator sim;
  const std::unique_ptr<net::Transport> flows =
      pkt::make_transport(backend_, sim, fabric_.network(), pkt_);
  collective::Engine engine(sim, fabric_, *flows, router_, ecfg_);
  for (const auto& r : relays_) engine.set_relay(r.server, r.peer, r.relay);
  TimeNs done_at = -1;
  launch(engine, [&](TimeNs t) { done_at = t; });
  sim.run();
  if (done_at < 0) {
    // A silent -1 would poison every downstream figure; fail loudly in every
    // build type, naming the phase.
    throw std::runtime_error(std::string("PhaseRunner: phase '") + label +
                             "' did not complete (deadlocked flows?)");
  }
  return done_at;
}

template <typename LaunchFn>
TimeNs PhaseRunner::cached_phase(const char* label, CacheKey key,
                                 LaunchFn&& launch) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // refresh recency
    return it->second.duration;
  }
  ++misses_;
  const TimeNs t = run_phase(label, std::forward<LaunchFn>(launch));
  auto [ins, inserted] = cache_.emplace(std::move(key), CacheEntry{t, {}});
  lru_.push_front(&ins->first);
  ins->second.lru_it = lru_.begin();
  if (cache_.size() > cache_capacity_) {
    auto victim = cache_.find(*lru_.back());
    lru_.pop_back();
    cache_.erase(victim);
  }
  return t;
}

TimeNs PhaseRunner::ep_all_to_all(const std::vector<int>& group_servers,
                                  const Matrix& bytes) {
  CacheKey key;
  key.kind = PhaseKind::kEpAllToAll;
  key.epoch = fabric_.epoch();
  key.participants = group_servers;
  key.demand_hash = matrix_hash(bytes);
  return cached_phase(
      "ep_all_to_all", std::move(key),
      [&](collective::Engine& e, collective::Engine::Callback cb) {
        e.ep_all_to_all(group_servers, bytes, std::move(cb));
      });
}

TimeNs PhaseRunner::send(int src_server, int dst_server, Bytes bytes) {
  CacheKey key;
  key.kind = PhaseKind::kSend;
  key.epoch = fabric_.epoch();
  key.participants = {src_server, dst_server};
  key.demand_hash = bytes_hash(bytes);
  return cached_phase(
      "send", std::move(key),
      [&](collective::Engine& e, collective::Engine::Callback cb) {
        e.send(src_server, dst_server, bytes, std::move(cb));
      });
}

TimeNs PhaseRunner::all_reduce(const std::vector<int>& servers, Bytes bytes) {
  CacheKey key;
  key.kind = PhaseKind::kAllReduce;
  key.epoch = fabric_.epoch();
  key.participants = servers;
  key.demand_hash = bytes_hash(bytes);
  return cached_phase(
      "all_reduce", std::move(key),
      [&](collective::Engine& e, collective::Engine::Callback cb) {
        e.all_reduce_ring(servers, bytes, std::move(cb));
      });
}

TimeNs PhaseRunner::dp_all_reduce(int servers_per_replica, int dp,
                                  Bytes bytes_per_gpu) {
  if (dp <= 1) return 0;
  CacheKey key;
  key.kind = PhaseKind::kDpAllReduce;
  key.epoch = fabric_.epoch();
  key.participants = {servers_per_replica, dp};
  key.demand_hash = bytes_hash(bytes_per_gpu);
  return cached_phase(
      "dp_all_reduce", std::move(key),
      [&](collective::Engine& e, collective::Engine::Callback cb) {
        auto barrier_count = std::make_shared<int>(servers_per_replica);
        auto last = std::make_shared<TimeNs>(0);
        auto shared_cb = std::make_shared<collective::Engine::Callback>(std::move(cb));
        for (int pos = 0; pos < servers_per_replica; ++pos) {
          std::vector<int> group;
          group.reserve(static_cast<std::size_t>(dp));
          for (int r = 0; r < dp; ++r) group.push_back(r * servers_per_replica + pos);
          e.hierarchical_all_reduce(group, bytes_per_gpu,
                                    [barrier_count, last, shared_cb](TimeNs t) {
                                      *last = std::max(*last, t);
                                      if (--*barrier_count == 0) (*shared_cb)(*last);
                                    });
        }
      });
}

}  // namespace mixnet::sim
