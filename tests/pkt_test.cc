// Packet engine (src/pkt): slab invariants, exact differential equivalence
// against the net::PacketSim golden oracle, input validation, and the
// PacketTransport adapter's eventsim integration (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "eventsim/simulator.h"
#include "net/network.h"
#include "net/transport.h"
#include "oracle/packetsim.h"
#include "pkt/engine.h"
#include "pkt/slab.h"
#include "pkt/transport.h"

namespace mixnet::pkt {
namespace {

// ------------------------------------------------------------------ slab ----

TEST(Slab, ReusesReleasedSlotsWithoutGrowing) {
  Slab<int> s;
  const std::int32_t a = s.alloc();
  const std::int32_t b = s.alloc();
  const std::int32_t c = s.alloc();
  EXPECT_EQ(s.capacity(), 3u);
  EXPECT_EQ(s.live(), 3u);
  s.release(b);
  EXPECT_EQ(s.live(), 2u);
  // Steady state: a release immediately feeds the next alloc; the pool's
  // high-water mark never moves.
  EXPECT_EQ(s.alloc(), b);
  EXPECT_EQ(s.capacity(), 3u);
  EXPECT_EQ(s.live(), 3u);
  s.release(a);
  s.release(b);
  s.release(c);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_EQ(s.capacity(), 3u);
}

TEST(Slab, AllocPastTheSlotLimitThrows) {
  // The engine packs slot indices into 23 bits; the slab refuses to grow
  // past its limit in every build type instead of handing out an index
  // that would alias another event.
  Slab<int> s(2);
  const std::int32_t a = s.alloc();
  s.alloc();
  EXPECT_THROW(s.alloc(), std::length_error);
  s.release(a);
  EXPECT_EQ(s.alloc(), a);  // a freed slot is still reusable at the limit
}

TEST(Slab, ReleaseOfAForeignIndexThrows) {
  Slab<int> s;
  s.alloc();
  EXPECT_THROW(s.release(1), std::out_of_range);
  EXPECT_THROW(s.release(-1), std::out_of_range);
  EXPECT_EQ(s.live(), 1u);
}

// ---------------------------------------------- engine vs PacketSim diff ----

struct TestFlow {
  Bytes size = 0.0;
  std::vector<net::LinkId> path;
};

// Golden oracle: per-flow completion times from net::PacketSim (-1 for a
// flow that never completes). The run drains: a packet on a zero-capacity
// link is stranded and schedules nothing.
std::vector<TimeNs> oracle_times(const net::Network& net,
                                 const std::vector<TestFlow>& flows,
                                 Bytes mtu = 4096.0) {
  eventsim::Simulator sim;
  net::PacketSim ps(sim, net, mtu);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::PacketFlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    // Move-assign a copy: GCC 12 at -O3 falsely fires -Wnonnull on
    // copy-assigning into an empty vector.
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.on_complete = [&done, i](TimeNs t) { done[i] = t; };
    ps.start_flow(std::move(s));
  }
  sim.run();
  return done;
}

// Drive the engine standalone (no eventsim): drain batch by batch.
std::vector<TimeNs> engine_times(const net::Network& net,
                                 const std::vector<TestFlow>& flows) {
  Engine eng(net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
  for (;;) {
    const std::vector<Completion>& comps = eng.advance(kTimeInf);
    if (comps.empty()) break;
    for (const Completion& c : comps)
      done[static_cast<std::size_t>(c.flow)] = c.at;
  }
  return done;
}

// 4-hop line with non-commensurate capacities/delays, so no two distinct
// event chains collide on the same instant by arithmetic accident.
net::Network line_net(std::vector<net::LinkId>* path) {
  net::Network net;
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 5; ++i)
    nodes.push_back(net.add_node(
        (i == 0 || i == 4) ? net::NodeKind::kServer : net::NodeKind::kSwitch));
  const double caps_gbps[4] = {97.0, 23.0, 41.0, 13.0};
  const double delays_us[4] = {1.3, 0.7, 2.9, 0.1};
  for (int i = 0; i < 4; ++i)
    path->push_back(net.add_link(nodes[i], nodes[i + 1], gbps(caps_gbps[i]),
                                 us_to_ns(delays_us[i])));
  return net;
}

// 2-hop line of sub-Gbps links: one MTU serializes for longer than the
// engine's 2^16 ns wheel-span cap (4096 B at 0.37 Gbps is ~88.6 us).
net::Network slow_line_net(std::vector<net::LinkId>* path) {
  net::Network net;
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 3; ++i)
    nodes.push_back(net.add_node(
        i == 1 ? net::NodeKind::kSwitch : net::NodeKind::kServer));
  path->push_back(net.add_link(nodes[0], nodes[1], gbps(0.37), us_to_ns(1.3)));
  path->push_back(net.add_link(nodes[1], nodes[2], gbps(0.29), us_to_ns(0.7)));
  return net;
}

// Dumbbell with skewed access capacities feeding one shared bottleneck.
net::Network dumbbell_net(std::vector<TestFlow>* flows) {
  net::Network net;
  const net::NodeId a = net.add_node(net::NodeKind::kServer);
  const net::NodeId b = net.add_node(net::NodeKind::kServer);
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId y = net.add_node(net::NodeKind::kServer);
  const net::LinkId la = net.add_link(a, sw, gbps(179.0), us_to_ns(0.9));
  const net::LinkId lb = net.add_link(b, sw, gbps(31.0), us_to_ns(2.3));
  const net::LinkId lo = net.add_link(sw, y, gbps(53.0), us_to_ns(1.1));
  flows->push_back({mib(3), {la, lo}});
  flows->push_back({mib(1), {lb, lo}});
  return net;
}

// 16-flow incast: distinct leaf capacities/delays/sizes per source.
net::Network incast_net(std::vector<TestFlow>* flows, int n_sources = 16) {
  net::Network net;
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId sink = net.add_node(net::NodeKind::kServer);
  const net::LinkId shared = net.add_link(sw, sink, gbps(401.0), us_to_ns(1.7));
  for (int i = 0; i < n_sources; ++i) {
    const net::NodeId src = net.add_node(net::NodeKind::kServer);
    const net::LinkId leaf = net.add_link(
        src, sw, gbps(29.0 + 7.0 * i), us_to_ns(0.3 + 0.37 * i));
    flows->push_back({mib(0.5 + 0.25 * i), {leaf, shared}});
  }
  return net;
}

TEST(EngineVsPacketSim, MultiHopLineExactMatch) {
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  const std::vector<TestFlow> flows = {
      {mib(2), path}, {mib(0.5), path}, {mib(1.25), path}};
  EXPECT_EQ(engine_times(net, flows), oracle_times(net, flows));
}

TEST(EngineVsPacketSim, SkewedDumbbellExactMatch) {
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  EXPECT_EQ(engine_times(net, flows), oracle_times(net, flows));
}

TEST(EngineVsPacketSim, SlowLinkOverflowHeapExactMatch) {
  // Every full-packet event lands past the wheel-span cap, in the overflow
  // heap, so the engine runs instants off the heap while the wheel is
  // empty. The partial tail packets are short enough to land in the wheel,
  // mixing both queues near the end of each flow.
  std::vector<net::LinkId> path;
  const net::Network net = slow_line_net(&path);
  const std::vector<TestFlow> flows = {{kib(300) + 100.0, path},
                                       {kib(120) + 7.0, path},
                                       {kib(200) + 1000.0, path}};
  EXPECT_EQ(engine_times(net, flows), oracle_times(net, flows));
}

TEST(EngineVsPacketSim, ManyFlowIncastBoundedDivergence) {
  // On the shared bottleneck, ns-quantized arrival times tie frequently;
  // the oracle breaks ties by event insertion order, the engine by content
  // key. Both are valid FIFO schedules, so per-flow completions may differ
  // only by a handful of 4096-byte serialization quanta on the shared link
  // -- never drift proportionally to the flow size.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  const std::vector<TimeNs> engine = engine_times(net, flows);
  const std::vector<TimeNs> oracle = oracle_times(net, flows);
  const double quantum = 4096.0 * 8.0 / (401.0 * 1e9) * 1e9;  // ~82 ns
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(engine[i]),
                static_cast<double>(oracle[i]), 16.0 * quantum)
        << "flow " << i;
  }
}

// ---------------------------------------------- periodic fast-forward ----

struct EngineRun {
  std::vector<TimeNs> done;  // per flow; -1 if it never completes
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t jumps = 0;
};

EngineRun run_engine(const net::Network& net, const std::vector<TestFlow>& flows,
                     PacketConfig cfg = {}) {
  Engine eng(net, cfg);
  EngineRun r;
  r.done.assign(flows.size(), -1);
  for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
  for (;;) {
    const std::vector<Completion>& comps = eng.advance(kTimeInf);
    if (comps.empty()) break;
    for (const Completion& c : comps)
      r.done[static_cast<std::size_t>(c.flow)] = c.at;
  }
  r.forwarded = eng.packets_forwarded();
  r.delivered = eng.packets_delivered();
  r.arrivals = eng.arrivals();
  r.jumps = eng.fast_forwards();
  return r;
}

// The packet counts net::PacketSim moves: every packet of a flow crosses
// every hop of its path, and a flow's last packet carries the remainder.
std::pair<std::uint64_t, std::uint64_t> oracle_packets(
    const std::vector<TestFlow>& flows, Bytes mtu = 4096.0) {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  for (const TestFlow& f : flows) {
    const auto n = static_cast<std::uint64_t>(std::ceil(f.size / mtu));
    delivered += n;
    forwarded += n * f.path.size();
  }
  return {forwarded, delivered};
}

// Every case diffs the engine against the oracle exactly: completion times
// and packet counts. The fast-forward must engage (jumps > 0, so far fewer
// arrivals are processed than forwarded) and change nothing.
void expect_fast_forward_exact(const net::Network& net,
                               const std::vector<TestFlow>& flows) {
  const EngineRun r = run_engine(net, flows);
  EXPECT_EQ(r.done, oracle_times(net, flows));
  const auto [forwarded, delivered] = oracle_packets(flows);
  EXPECT_EQ(r.forwarded, forwarded);
  EXPECT_EQ(r.delivered, delivered);
  EXPECT_GT(r.jumps, 0u);
  EXPECT_LT(r.arrivals, r.forwarded / 2);
}

TEST(FastForward, LongFlowsSharingABottleneckExactMatch) {
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  flows[0].size = mib(48);
  flows[1].size = mib(32);
  expect_fast_forward_exact(net, flows);
}

TEST(FastForward, PartialLastPacketsExactMatch) {
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  expect_fast_forward_exact(
      net, {{mib(24) + 100.0, path}, {mib(16) + 4095.0, path},
            {mib(20) + 1.0, path}});
}

TEST(FastForward, WholeMtuFlowsEndExactly) {
  // Sizes of a whole number of MTUs, one per residue of a 16-packet period:
  // a jump must never swallow a flow's last packet.
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  for (int j = 0; j < 16; ++j) {
    SCOPED_TRACE(j);
    expect_fast_forward_exact(net, {{mib(12) + 4096.0 * j, path}});
  }
}

TEST(FastForward, MixedLinkRatesExactMatch) {
  // Three sources on 29, 71 and 113 Gbps access links share a 47 Gbps
  // link and a 61 Gbps last hop: each flow crosses three different rates.
  net::Network net;
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId sw2 = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId sink = net.add_node(net::NodeKind::kServer);
  const net::LinkId shared = net.add_link(sw, sw2, gbps(47.0), us_to_ns(1.7));
  const net::LinkId last = net.add_link(sw2, sink, gbps(61.0), us_to_ns(0.4));
  std::vector<TestFlow> flows;
  const double caps[3] = {29.0, 71.0, 113.0};
  for (int i = 0; i < 3; ++i) {
    const net::NodeId src = net.add_node(net::NodeKind::kServer);
    const net::LinkId access =
        net.add_link(src, sw, gbps(caps[i]), us_to_ns(0.3 + 0.37 * i));
    flows.push_back({mib(16 + 8 * i), {access, shared, last}});
  }
  expect_fast_forward_exact(net, flows);
}

TEST(FastForward, DeadLinkStrandsOnlyItsFlow) {
  // Flow 2 shares the 179 Gbps access link with flow 0, then dies on a
  // zero-capacity link: its first window is stranded for ever, and the
  // live flows' periodic schedule around it still fast-forwards.
  std::vector<TestFlow> flows;
  net::Network net = dumbbell_net(&flows);
  flows[0].size = mib(48);
  flows[1].size = mib(32);
  const net::NodeId sink = net.add_node(net::NodeKind::kServer);
  const net::LinkId dead =
      net.add_link(net.link(flows[0].path[0]).dst, sink, 0.0, us_to_ns(1.0));
  flows.push_back({mib(8), {flows[0].path[0], dead}});

  const EngineRun r = run_engine(net, flows);
  EXPECT_EQ(r.done, oracle_times(net, flows));
  EXPECT_EQ(r.done[2], -1);  // never arrives
  const PacketConfig cfg;
  const auto [forwarded, delivered] =
      oracle_packets({flows[0], flows[1]});
  // The stranded window crossed the access link and went no further.
  EXPECT_EQ(r.forwarded,
            forwarded + static_cast<std::uint64_t>(cfg.window_packets));
  EXPECT_EQ(r.delivered, delivered);
  EXPECT_GT(r.jumps, 0u);
}

TEST(PacketSimOracle, DeadHopsStrandTheirFlowsAndTheRunDrains) {
  // Flow 2 crosses the shared 179 Gbps access link and then a
  // zero-capacity link; flow 3 starts on one, so a whole window queues on
  // it at once. Both are stranded: sim.run() returns, neither completes,
  // and the live flows finish at the times the engine gives them.
  std::vector<TestFlow> flows;
  net::Network net = dumbbell_net(&flows);
  const net::NodeId sw = net.link(flows[0].path[0]).dst;
  const net::NodeId sink = net.add_node(net::NodeKind::kServer);
  const net::LinkId dead = net.add_link(sw, sink, 0.0, us_to_ns(1.0));
  const net::NodeId src = net.add_node(net::NodeKind::kServer);
  const net::LinkId dead_access = net.add_link(src, sw, 0.0, us_to_ns(0.5));
  flows.push_back({mib(1), {flows[0].path[0], dead}});
  flows.push_back({mib(1), {dead_access, flows[0].path[1]}});

  const std::vector<TimeNs> done = oracle_times(net, flows);
  EXPECT_EQ(done, (std::vector<TimeNs>{635015, 363095, -1, -1}));
  EXPECT_EQ(done, engine_times(net, flows));
}

TEST(FastForward, NonIntegerMtuNeverJumps) {
  // The flows of LongFlowsSharingABottleneckExactMatch, with an MTU that
  // is not a whole number of bytes: a jump's `injected += k * d * mtu`
  // could differ from repeated additions in the last bit, so the engine
  // steps every instant. (4096.5 happens to add exactly; the rule does not
  // try to tell such MTUs apart.)
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  flows[0].size = mib(48);
  flows[1].size = mib(32);
  PacketConfig cfg;
  cfg.mtu_bytes = 4096.5;
  const EngineRun r = run_engine(net, flows, cfg);
  EXPECT_EQ(r.done, oracle_times(net, flows, cfg.mtu_bytes));
  const auto [forwarded, delivered] = oracle_packets(flows, cfg.mtu_bytes);
  EXPECT_EQ(r.forwarded, forwarded);
  EXPECT_EQ(r.delivered, delivered);
  EXPECT_EQ(r.jumps, 0u);
  EXPECT_EQ(r.arrivals, r.forwarded);
}

TEST(Engine, PacketAccountingAndMtuChopping) {
  // One flow of 3 full MTUs plus a 100-byte tail over 2 hops.
  net::Network net;
  const net::NodeId a = net.add_node(net::NodeKind::kServer);
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId b = net.add_node(net::NodeKind::kServer);
  const net::LinkId l1 = net.add_link(a, sw, gbps(100.0), us_to_ns(1.0));
  const net::LinkId l2 = net.add_link(sw, b, gbps(100.0), us_to_ns(1.0));

  Engine eng(net);
  eng.add_flow(3 * 4096.0 + 100.0, {l1, l2}, 0);
  while (!eng.advance(kTimeInf).empty()) {
  }
  EXPECT_EQ(eng.packets_delivered(), 4u);   // 3 MTU packets + the tail
  EXPECT_EQ(eng.packets_forwarded(), 8u);   // each crosses both hops
  EXPECT_EQ(eng.slab_live(), 0u);           // every descriptor returned
}

TEST(Engine, AddFlowRejectsBadInput) {
  // Per-flow checks hold in every build type, not just under assert.
  net::Network net;
  const net::NodeId a = net.add_node(net::NodeKind::kServer);
  const net::NodeId b = net.add_node(net::NodeKind::kServer);
  const net::LinkId l = net.add_link(a, b, gbps(100.0), us_to_ns(1.0));

  Engine eng(net);
  EXPECT_THROW(eng.add_flow(4096.0, {}, 0), std::invalid_argument);
  // A 16-bit hop index cannot address a path of 32768 hops.
  EXPECT_THROW(eng.add_flow(4096.0, std::vector<net::LinkId>(32768, l), 0),
               std::invalid_argument);
  EXPECT_THROW(eng.add_flow(0.0, {l}, 0), std::invalid_argument);
  EXPECT_THROW(eng.add_flow(-1.0, {l}, 0), std::invalid_argument);
  EXPECT_NO_THROW(eng.add_flow(4096.0, {l}, 1000));
  // Internal times are relative to the first flow's start.
  EXPECT_THROW(eng.add_flow(4096.0, {l}, 999), std::invalid_argument);
  EXPECT_NO_THROW(eng.add_flow(4096.0, {l}, 1000));
  EXPECT_NO_THROW(eng.add_flow(4096.0, std::vector<net::LinkId>(32767, l), 1000));
}

TEST(Engine, SlabStaysBoundedByWindows) {
  // Zero per-packet allocation in steady state: the descriptor pool's
  // high-water mark is at most one window per flow, regardless of flow size.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  PacketConfig cfg;
  Engine eng(net, cfg);
  for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
  while (!eng.advance(kTimeInf).empty()) {
  }
  EXPECT_LE(eng.slab_capacity(),
            flows.size() * static_cast<std::size_t>(cfg.window_packets));
  EXPECT_EQ(eng.slab_live(), 0u);
  EXPECT_GT(eng.packets_delivered(), 1000u);  // far more packets than slots
}

// --------------------------------------------------- transport adapter ----

TEST(PacketTransport, MatchesStandaloneEngineExactly) {
  // The adapter must add zero drift: completions through the eventsim pump
  // are bit-identical to draining the engine directly.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  const std::vector<TimeNs> direct = engine_times(net, flows);

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::FlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.on_complete = [&done, i](net::FlowId, TimeNs t) { done[i] = t; };
    pt.start_flow(std::move(s));
  }
  sim.run();
  EXPECT_EQ(done, direct);
  EXPECT_EQ(sim.now(), *std::max_element(direct.begin(), direct.end()));
}

// Flow 0 (`size0` over `path0`) starts at 0 and flow 1 (`size1` over
// `path1`) at `late`. The late start is a foreign simulator event, so it
// exercises the pump's horizon re-arming (foreign events bound the
// speculative drain). Returns the engine's fast-forward jumps.
std::uint64_t expect_staggered_starts_match_oracle(
    const net::Network& net, const std::vector<net::LinkId>& path0,
    const std::vector<net::LinkId>& path1, TimeNs late,
    Bytes size0 = mib(2), Bytes size1 = mib(1)) {
  eventsim::Simulator sim_o;
  net::PacketSim ps(sim_o, net);
  std::vector<TimeNs> oracle(2, -1);
  auto start_oracle = [&](const std::vector<net::LinkId>& path, Bytes size,
                          std::size_t i) {
    net::PacketFlowSpec s;
    s.src = net.link(path.front()).src;
    s.dst = net.link(path.back()).dst;
    s.size = size;
    s.path = std::vector<net::LinkId>(path);
    s.on_complete = [&oracle, i](TimeNs t) { oracle[i] = t; };
    ps.start_flow(std::move(s));
  };
  start_oracle(path0, size0, 0);
  sim_o.schedule_at(late, [&] { start_oracle(path1, size1, 1); });
  sim_o.run();

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(2, -1);
  auto start = [&](const std::vector<net::LinkId>& path, Bytes size,
                   std::size_t i) {
    net::FlowSpec s;
    s.src = net.link(path.front()).src;
    s.dst = net.link(path.back()).dst;
    s.size = size;
    s.path = std::vector<net::LinkId>(path);
    s.on_complete = [&done, i](net::FlowId, TimeNs t) { done[i] = t; };
    pt.start_flow(std::move(s));
  };
  start(path0, size0, 0);
  sim.schedule_at(late, [&] { start(path1, size1, 1); });
  sim.run();
  EXPECT_EQ(done, oracle);
  return pt.engine().fast_forwards();
}

TEST(PacketTransport, StaggeredStartsMatchOracle) {
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  expect_staggered_starts_match_oracle(net, path, path, 777'777);
}

TEST(PacketTransport, LateStartBoundsTheFastForward) {
  // Flow 0 is deep in its periodic steady state when flow 1 starts: the
  // pump's limit (the late start) bounds the jump, and the two-flow
  // schedule after it fast-forwards again.
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  EXPECT_GT(expect_staggered_starts_match_oracle(net, path, path, 7'777'777,
                                                 mib(32), mib(12)),
            1u);
}

TEST(PacketTransport, SlowLinkStaggeredStartsMatchOracle) {
  // Flow 0's events sit ~90 us apart in the engine's overflow heap; the
  // late flow starts inside such a gap on a fast link of its own, so its
  // first arrival precedes flow 0's next event. The drain before the late
  // start must not move the engine's cursor past it.
  std::vector<net::LinkId> slow;
  net::Network net = slow_line_net(&slow);
  const net::NodeId src = net.add_node(net::NodeKind::kServer);
  const std::vector<net::LinkId> fast = {net.add_link(
      src, net.link(slow.back()).dst, gbps(100.0), us_to_ns(0.5))};
  expect_staggered_starts_match_oracle(net, slow, fast, 777'777);
}

TEST(PacketTransport, EmptyPathCompletesAfterExtraDelay) {
  net::Network net;
  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  net::FlowSpec s;
  s.size = mib(1);
  s.extra_delay = us_to_ns(5.0);
  TimeNs done = -1;
  s.on_complete = [&](net::FlowId, TimeNs t) { done = t; };
  pt.start_flow(std::move(s));
  sim.run();
  EXPECT_EQ(done, us_to_ns(5.0));
}

TEST(PacketTransport, ExtraDelayShiftsCompletion) {
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  const std::vector<TimeNs> oracle = oracle_times(net, flows);
  const TimeNs extra = us_to_ns(11.3);

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::FlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.extra_delay = extra;
    s.on_complete = [&done, i](net::FlowId, TimeNs t) { done[i] = t; };
    pt.start_flow(std::move(s));
  }
  sim.run();
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_EQ(done[i], oracle[i] + extra) << "flow " << i;
}

TEST(MakeTransport, LadderRungsAreOrdered) {
  // analytic is contention-free, so with two flows sharing a bottleneck it
  // must finish no later than the fluid and packet models.
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  TimeNs last[3] = {0, 0, 0};
  const net::NetBackend ladder[3] = {net::NetBackend::kAnalytic,
                                     net::NetBackend::kFlow,
                                     net::NetBackend::kPacket};
  for (int b = 0; b < 3; ++b) {
    eventsim::Simulator sim;
    const std::unique_ptr<net::Transport> t =
        make_transport(ladder[b], sim, net);
    ASSERT_NE(t, nullptr);
    for (const TestFlow& f : flows) {
      net::FlowSpec s;
      s.src = net.link(f.path.front()).src;
      s.dst = net.link(f.path.back()).dst;
      s.size = f.size;
      s.path = std::vector<net::LinkId>(f.path);
      s.on_complete = [&last, b](net::FlowId, TimeNs at) {
        if (at > last[b]) last[b] = at;
      };
      t->start_flow(std::move(s));
    }
    sim.run();
    EXPECT_GT(last[b], 0) << to_string(ladder[b]);
  }
  EXPECT_LE(last[0], last[1]);  // analytic <= flow
  EXPECT_LE(last[0], last[2]);  // analytic <= packet
  // packet vs flow agree within the ladder's stated tolerance.
  EXPECT_NEAR(static_cast<double>(last[2]) / static_cast<double>(last[1]),
              1.0, 0.05);
}

}  // namespace
}  // namespace mixnet::pkt
