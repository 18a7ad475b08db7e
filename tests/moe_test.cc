#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "moe/gate.h"
#include "moe/gate_trace.h"
#include "moe/models.h"
#include "moe/placement.h"
#include "moe/traffic.h"

namespace mixnet::moe {
namespace {

// ---------------------------------------------------------------- models ----

TEST(Models, ZooMatchesTable1) {
  const auto mixtral = mixtral_8x7b();
  EXPECT_EQ(mixtral.n_blocks, 32);
  EXPECT_EQ(mixtral.n_experts, 8);
  const auto p = default_parallelism(mixtral);
  EXPECT_EQ(p.ep, 8);
  EXPECT_EQ(p.tp, 4);
  EXPECT_EQ(p.pp, 4);

  const auto llama = llama_moe();
  EXPECT_EQ(llama.n_experts, 16);
  EXPECT_EQ(default_parallelism(llama).ep, 16);
  EXPECT_EQ(default_parallelism(llama).tp, 1);

  const auto qwen = qwen_moe();
  EXPECT_EQ(qwen.n_blocks, 24);
  EXPECT_EQ(qwen.n_experts, 64);

  const auto ds = deepseek_r1();
  EXPECT_EQ(ds.n_experts, 256);
  EXPECT_EQ(default_parallelism(ds).ep, 64);
  EXPECT_EQ(default_parallelism(ds).pp, 16);
}

TEST(Models, SimulationModelsInPaperOrder) {
  const auto ms = simulation_models();
  ASSERT_EQ(ms.size(), 4u);
  EXPECT_EQ(ms[0].name, "Mixtral 8x22B");
  EXPECT_EQ(ms[3].name, "DeepSeek-R1");
}

// ------------------------------------------------------------- placement ----

TEST(Placement, RoundTripCoordinates) {
  ParallelismSpec p;
  p.ep = 8;
  p.tp = 4;
  p.pp = 4;
  p.dp = 2;
  Placement pl(p, 8);
  EXPECT_EQ(pl.total_gpus(), 256);
  EXPECT_EQ(pl.total_servers(), 32);
  for (int g = 0; g < pl.total_gpus(); g += 17) {
    const GpuCoord c = pl.coord_of(g);
    EXPECT_EQ(pl.gpu_of(c), g);
  }
}

TEST(Placement, GpuOfRejectsCoordinatesOutsideTheDegrees) {
  ParallelismSpec p;
  p.dp = 2;
  p.pp = 4;
  p.ep = 8;
  p.tp = 4;
  Placement pl(p, 8);
  EXPECT_EQ(pl.gpu_of({1, 3, 7, 3}), pl.total_gpus() - 1);
  // Each would alias another GPU's index, or one past the cluster.
  EXPECT_THROW(pl.gpu_of({2, 0, 0, 0}), std::out_of_range);
  EXPECT_THROW(pl.gpu_of({0, 4, 0, 0}), std::out_of_range);
  EXPECT_THROW(pl.gpu_of({0, 0, 8, 0}), std::out_of_range);
  EXPECT_THROW(pl.gpu_of({0, 0, 0, 4}), std::out_of_range);
  EXPECT_THROW(pl.gpu_of({0, 1, -1, 0}), std::out_of_range);
  EXPECT_THROW(pl.gpu_of({-1, 0, 0, 0}), std::out_of_range);
}

TEST(Placement, TpInnermostSharesServer) {
  ParallelismSpec p;
  p.ep = 8;
  p.tp = 4;
  p.pp = 4;
  Placement pl(p, 8);
  // A TP group (4 GPUs) must fit within one server (8 GPUs).
  for (int ep = 0; ep < 8; ++ep) {
    const int s0 = pl.server_of_gpu(pl.gpu_of({0, 0, ep, 0}));
    for (int tp = 1; tp < 4; ++tp)
      EXPECT_EQ(pl.server_of_gpu(pl.gpu_of({0, 0, ep, tp})), s0);
  }
}

TEST(Placement, EpGroupServersContiguous) {
  ParallelismSpec p;
  p.ep = 8;
  p.tp = 4;
  p.pp = 4;
  Placement pl(p, 8);
  const auto servers = pl.ep_group_servers(0, 0);
  EXPECT_EQ(servers, (std::vector<int>{0, 1, 2, 3}));
  const auto next = pl.ep_group_servers(0, 1);
  EXPECT_EQ(next, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(pl.region_servers(), 4);
}

TEST(Placement, RankToLocalServerMapsPairsOfRanks) {
  ParallelismSpec p;
  p.ep = 8;
  p.tp = 4;
  p.pp = 1;
  Placement pl(p, 8);
  // EP rank spans tp=4 GPUs; 2 ranks per 8-GPU server.
  const auto map = pl.ep_rank_to_local_server(0, 0);
  EXPECT_EQ(map, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(Placement, DeepSeekRegionIs8Servers) {
  Placement pl(default_parallelism(deepseek_r1()), 8);
  EXPECT_EQ(pl.region_servers(), 8);  // EP64 x TP1 = 64 GPUs
}

// ---------------------------------------------------------------- gate ----

GateConfig small_gate() {
  GateConfig g;
  g.n_experts = 8;
  g.n_layers = 4;
  g.ep_ranks = 8;
  g.tokens_per_rank = 4096;
  g.seed = 99;
  return g;
}

TEST(Gate, LoadsNormalized) {
  GateSimulator gs(small_gate());
  for (int l = 0; l < 4; ++l) {
    const auto& load = gs.expert_load(l);
    double s = 0.0;
    for (double v : load) {
      EXPECT_GE(v, 0.0);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Gate, CountsPreserveTokensPerRank) {
  GateSimulator gs(small_gate());
  const Matrix& c = gs.dispatch_counts(0);
  for (std::size_t h = 0; h < c.rows(); ++h) EXPECT_NEAR(c.row_sum(h), 4096.0, 1.0);
}

TEST(Gate, TransitionsColumnStochastic) {
  GateSimulator gs(small_gate());
  for (int l = 1; l < 4; ++l) {
    const Matrix& m = gs.transition(l);
    for (std::size_t c = 0; c < m.cols(); ++c) EXPECT_NEAR(m.col_sum(c), 1.0, 1e-9);
  }
}

TEST(Gate, TemporalVariability) {
  GateSimulator gs(small_gate());
  // Expert-0 load over iterations must actually vary (Fig. 4a).
  std::vector<double> series;
  for (int i = 0; i < 50; ++i) {
    gs.step();
    series.push_back(gs.expert_load(1)[0]);
  }
  EXPECT_GT(stddev(series), 1e-4);
}

TEST(Gate, LoadBalancingReducesVariabilityOverTraining) {
  GateSimulator gs(small_gate());
  auto imbalance = [&] {
    // max/mean over experts at layer 0.
    const auto& load = gs.expert_load(0);
    const double mx = *std::max_element(load.begin(), load.end());
    return mx * load.size();
  };
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 30; ++i) {
    gs.step();
    early += imbalance();
  }
  for (int i = 0; i < 2000; ++i) gs.step();
  for (int i = 0; i < 30; ++i) {
    gs.step();
    late += imbalance();
  }
  EXPECT_LT(late, early);
  EXPECT_GT(gs.lb_mix(), 0.4 * GateSimulator::kLbFinal);
}

TEST(Gate, DispatchMatrixConservesBytes) {
  GateSimulator gs(small_gate());
  const double bps = 8192.0;  // bytes per slot
  const Matrix t = gs.rank_dispatch_matrix(1, bps);
  EXPECT_NEAR(t.sum(), 8 * 4096.0 * bps, 8 * 4096.0 * bps * 1e-6);
}

TEST(Gate, ContiguousOwnershipGivesRemainderToLastRank) {
  // 10 experts on 4 ranks: two per rank, and rank 3 also owns 8 and 9.
  EXPECT_EQ(contiguous_expert_ranks(10, 4),
            (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3, 3, 3}));
  // Fewer experts than ranks: one expert per rank, the rest own none.
  EXPECT_EQ(contiguous_expert_ranks(3, 8), (std::vector<int>{0, 1, 2}));
  EXPECT_THROW(contiguous_expert_ranks(8, 0), std::invalid_argument);
}

TEST(Gate, DispatchMatrixPutsRemainderExpertsOnLastRank) {
  Matrix counts(4, 10, 0.0);
  for (std::size_t h = 0; h < 4; ++h)
    for (std::size_t e = 0; e < 10; ++e)
      counts(h, e) = static_cast<double>(1 + h + 10 * e);
  const double bps = 2.0;
  const Matrix t = rank_dispatch_matrix(counts, contiguous_expert_ranks(10, 4), bps);
  ASSERT_EQ(t.rows(), 4u);
  ASSERT_EQ(t.cols(), 4u);
  for (std::size_t h = 0; h < 4; ++h) {
    double last = 0.0;
    for (std::size_t e = 6; e < 10; ++e) last += counts(h, e) * bps;
    EXPECT_DOUBLE_EQ(t(h, 3), last) << h;
    EXPECT_DOUBLE_EQ(t(h, 0), (counts(h, 0) + counts(h, 1)) * bps) << h;
  }
  EXPECT_NEAR(t.sum(), counts.sum() * bps, 1e-9);
  EXPECT_THROW(rank_dispatch_matrix(counts, contiguous_expert_ranks(8, 4), bps),
               std::invalid_argument);
}

TEST(Gate, SpatialNonUniformity) {
  GateSimulator gs(small_gate());
  gs.step();
  const Matrix t = gs.rank_dispatch_matrix(1, 1.0);
  // Off-diagonal entries should span a wide range (hot pairs, Fig. 4b).
  double mx = 0.0, mn = 1e30;
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j) {
      mx = std::max(mx, t(i, j));
      mn = std::min(mn, t(i, j));
    }
  EXPECT_GT(mx, 3.0 * std::max(mn, 1e-9));
}

TEST(Gate, SkipMatchesSteppedStochasticState) {
  // skip(n) must land on the same iteration count and produce valid,
  // normalized distributions (it fast-forwards the same RNG-driven state).
  GateConfig g = small_gate();
  GateSimulator a(g);
  a.skip(25);
  EXPECT_EQ(a.iteration(), 25);
  for (int l = 0; l < g.n_layers; ++l) {
    double s = 0.0;
    for (double v : a.expert_load(l)) s += v;
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
  // Preferences drift: loads after skip differ from a fresh simulator.
  GateSimulator fresh(g);
  fresh.step();
  double diff = 0.0;
  for (std::size_t e = 0; e < a.expert_load(1).size(); ++e)
    diff += std::abs(a.expert_load(1)[e] - fresh.expert_load(1)[e]);
  EXPECT_GT(diff, 1e-3);
}

TEST(Gate, RejectsNonPositiveDimensions) {
  // Always-on validation (not an assert): the constructor divides by
  // ep_ranks and sizes every buffer from these fields.
  for (int GateConfig::*field :
       {&GateConfig::n_experts, &GateConfig::n_layers, &GateConfig::ep_ranks}) {
    for (int bad : {0, -1}) {
      GateConfig g = small_gate();
      g.*field = bad;
      EXPECT_THROW(GateSimulator{g}, std::invalid_argument) << bad;
    }
  }
}

TEST(Gate, RejectsNonFiniteKnobs) {
  // NaN or infinite knobs fail at construction, naming the field.
  const std::vector<std::pair<double GateConfig::*, const char*>> knobs = {
      {&GateConfig::tokens_per_rank, "tokens_per_rank"},
      {&GateConfig::personalization, "personalization"},
      {&GateConfig::pref_drift_sigma, "pref_drift_sigma"},
      {&GateConfig::pref_retention, "pref_retention"},
  };
  for (const auto& [field, name] : knobs) {
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      GateConfig g = small_gate();
      g.*field = bad;
      try {
        GateSimulator gs(g);
        ADD_FAILURE() << name << " = " << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Gate, RejectsReadLayersOutsideTheModel) {
  for (int bad : {-1, 0, small_gate().n_layers + 1})
    EXPECT_THROW(GateSimulator(small_gate(), bad), std::invalid_argument) << bad;
  EXPECT_NO_THROW(GateSimulator(small_gate(), small_gate().n_layers));
}

TEST(Gate, TransitionRejectsLayersWithoutAPredecessor) {
  GateSimulator gs(small_gate());
  EXPECT_THROW(gs.transition(0), std::out_of_range);
  EXPECT_THROW(gs.transition(-1), std::out_of_range);
  EXPECT_THROW(gs.transition(small_gate().n_layers), std::out_of_range);
  EXPECT_EQ(gs.transition(1).rows(), 8u);
}

// ------------------------------------------------------------ gate trace ----

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Layers [0, k) of `part` hold exactly the bits of the full simulator's.
void expect_read_layers_equal(const GateSimulator& full,
                              const GateSimulator& part, int k) {
  for (int l = 0; l < k; ++l) {
    EXPECT_TRUE(same_bits(part.expert_load(l), full.expert_load(l))) << l;
    EXPECT_TRUE(same_bits(part.dispatch_counts(l).data(),
                          full.dispatch_counts(l).data()))
        << l;
    if (l > 0) {
      EXPECT_TRUE(same_bits(part.transition(l).data(), full.transition(l).data()))
          << l;
    }
  }
}

TEST(Gate, ReadLayersAreBitEqualToTheFullSimulator) {
  // Unread layers still take every draw, so the read layers see the same
  // RNG stream as a full simulator of the same seed: through step, skip and
  // advance_steps, and across the 50- and 100-iteration transition drifts
  // (crossed by step at 50 and 100, by advance_steps at 150, by skip at 200).
  const GateConfig g = small_gate();
  for (int k = 1; k < g.n_layers; ++k) {
    SCOPED_TRACE("read_layers " + std::to_string(k));
    GateSimulator full(g), part(g, k);
    expect_read_layers_equal(full, part, g.n_layers);  // constructor: all
    const std::vector<std::pair<const char*, std::function<void(GateSimulator&)>>>
        moves = {
            {"advance_steps(48)", [](GateSimulator& s) { s.advance_steps(48); }},
            {"step x3 (crosses 50)",
             [](GateSimulator& s) {
               for (int i = 0; i < 3; ++i) s.step();
             }},
            {"skip(48)", [](GateSimulator& s) { s.skip(48); }},
            {"step (lands on 100)", [](GateSimulator& s) { s.step(); }},
            {"advance_steps(60) (crosses 150)",
             [](GateSimulator& s) { s.advance_steps(60); }},
            {"skip(45) (crosses 200)", [](GateSimulator& s) { s.skip(45); }},
            {"step", [](GateSimulator& s) { s.step(); }},
        };
    for (const auto& [what, move] : moves) {
      SCOPED_TRACE(what);
      move(full);
      move(part);
      ASSERT_EQ(part.iteration(), full.iteration());
      expect_read_layers_equal(full, part, k);
    }
    EXPECT_EQ(full.iteration(), 206);
  }
}

TEST(Gate, ReadLayersAreBitEqualAtDeepSeekScale) {
  // 256 experts over 64 EP ranks with 3 of 8 layers read: the unread
  // layers' gammas and normals are skipped in whole blocks, the blocked
  // propagation covers a transition larger than L1, and the read layers
  // still hold the full simulator's bits across both drifts of a
  // 100-iteration closed-form warmup, a step and a skip.
  GateConfig g;
  g.n_experts = 256;
  g.n_layers = 8;
  g.ep_ranks = 64;
  g.tokens_per_rank = 16384;
  g.seed = 7;
  GateSimulator full(g), part(g, 3);
  expect_read_layers_equal(full, part, g.n_layers);
  for (const auto& move : std::vector<std::function<void(GateSimulator&)>>{
           [](GateSimulator& s) { s.advance_steps(100); },
           [](GateSimulator& s) { s.step(); },
           [](GateSimulator& s) { s.skip(3); }}) {
    move(full);
    move(part);
    ASSERT_EQ(part.iteration(), full.iteration());
    expect_read_layers_equal(full, part, 3);
  }
}

TEST(Gate, UnreadLayersAreReadableOnlyBeforeTheFirstAdvance) {
  // The constructor computes every layer (GateTrace::initial() and TopoOpt
  // read them all); after the first advance only [0, read_layers) is held.
  for (const auto& advance :
       std::vector<std::function<void(GateSimulator&)>>{
           [](GateSimulator& s) { s.step(); },
           [](GateSimulator& s) { s.skip(3); },
           [](GateSimulator& s) { s.advance_steps(3); }}) {
    GateSimulator gs(small_gate(), 2);
    EXPECT_NO_THROW(gs.expert_load(3));
    EXPECT_NO_THROW(gs.dispatch_counts(2));
    EXPECT_NO_THROW(gs.transition(3));
    gs.advance_steps(0);  // no advance: the state still holds every layer
    EXPECT_NO_THROW(gs.expert_load(3));
    advance(gs);
    EXPECT_NO_THROW(gs.expert_load(1));
    EXPECT_NO_THROW(gs.transition(1));
    EXPECT_THROW(gs.expert_load(2), std::out_of_range);
    EXPECT_THROW(gs.dispatch_counts(2), std::out_of_range);
    EXPECT_THROW(gs.rank_dispatch_matrix(3, 1.0), std::out_of_range);
    EXPECT_THROW(gs.transition(2), std::out_of_range);
    EXPECT_THROW(gs.preference_logits(0, 2), std::out_of_range);
    EXPECT_THROW(gs.expert_load(-1), std::out_of_range);
  }
}

TEST(Gate, WarmUpDispatchesOnThePolicy) {
  // 60 iterations cross the iteration-50 transition drift either way.
  for (const WarmupPolicy policy :
       {WarmupPolicy::kClosedForm, WarmupPolicy::kExactSteps}) {
    GateSimulator warmed(small_gate(), 2), direct(small_gate(), 2);
    warmed.warm_up(60, policy);
    if (policy == WarmupPolicy::kClosedForm)
      direct.advance_steps(60);
    else
      direct.skip(60);
    EXPECT_EQ(warmed.iteration(), 60);
    expect_read_layers_equal(direct, warmed, 2);
  }
}

// The snapshot holds exactly what the live gate returns for layers [0, layers),
// and its dispatch matrix under the one ownership rule is the live gate's.
void expect_snapshot_is_live_state(const GateSnapshot& s,
                                   const GateSimulator& live, int layers) {
  const std::vector<int> owners =
      contiguous_expert_ranks(live.config().n_experts, live.config().ep_ranks);
  ASSERT_EQ(s.counts.size(), static_cast<std::size_t>(layers));
  ASSERT_EQ(s.loads.size(), static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    EXPECT_EQ(s.counts[lu].rows(), live.dispatch_counts(l).rows());
    EXPECT_TRUE(same_bits(s.counts[lu].data(), live.dispatch_counts(l).data())) << l;
    EXPECT_TRUE(same_bits(s.loads[lu], live.expert_load(l))) << l;
    EXPECT_TRUE(same_bits(rank_dispatch_matrix(s.counts[lu], owners, 8192.0).data(),
                          live.rank_dispatch_matrix(l, 8192.0).data()))
        << l;
  }
}

TEST(GateTrace, SnapshotsEqualLiveGateBitForBit) {
  // 3 ranks over 8 experts: the last rank owns the remainder, so the
  // dispatch-matrix ownership rule is exercised too. Warmup 48 makes the
  // recorded steps cross the iteration-50 transition drift. The producer
  // holds only the recorded layers (1 or 3 of 4) after warmup; the live
  // gate computes all of them.
  GateConfig g = small_gate();
  g.ep_ranks = 3;
  constexpr int kWarmup = 48, kSteps = 3;
  for (const int layers : {1, 3}) {
    for (const WarmupPolicy policy :
         {WarmupPolicy::kClosedForm, WarmupPolicy::kExactSteps}) {
      SCOPED_TRACE(policy == WarmupPolicy::kClosedForm ? "closed-form" : "exact");
      SCOPED_TRACE("layers " + std::to_string(layers));
      const GateTrace trace(g, kWarmup, policy, layers);
      GateSimulator live(g);
      expect_snapshot_is_live_state(trace.initial(), live, g.n_layers);
      if (policy == WarmupPolicy::kClosedForm)
        live.advance_steps(kWarmup);
      else
        live.skip(kWarmup);
      for (int i = 1; i <= kSteps; ++i) {
        live.step();
        expect_snapshot_is_live_state(trace.iteration(i), live, layers);
      }
      EXPECT_THROW(trace.iteration(0), std::out_of_range);
      // Recorded iterations stay readable after later ones are produced.
      expect_snapshot_is_live_state(trace.iteration(kSteps), live, layers);
    }
  }
}

TEST(GateTrace, OpenEndedTraceExtendsOnDemand) {
  const GateTrace trace(small_gate(), 5, WarmupPolicy::kClosedForm, 4);
  GateSimulator live(small_gate());
  live.advance_steps(5);
  for (int i = 0; i < 7; ++i) live.step();
  expect_snapshot_is_live_state(trace.iteration(7), live, 4);
  EXPECT_EQ(trace.iteration(2).counts.size(), 4u);  // earlier ones kept
}

TEST(GateTrace, RejectsLayerCountsOutsideTheModel) {
  EXPECT_THROW(GateTrace(small_gate(), 0, WarmupPolicy::kClosedForm, 0),
               std::invalid_argument);
  EXPECT_THROW(GateTrace(small_gate(), 0, WarmupPolicy::kClosedForm, 5),
               std::invalid_argument);
}

TEST(GateTraceMemo, OnePointerPerKeyAndADistinctTracePerField) {
  const GateConfig g = small_gate();
  GateTraceMemo memo;
  const auto a = memo.get(g, 10, WarmupPolicy::kClosedForm, 2);
  const auto b = memo.get(g, 10, WarmupPolicy::kClosedForm, 2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(memo.stats().built, 1u);
  EXPECT_EQ(memo.stats().shared, 1u);

  // Every GateConfig field, the warmup, the policy and the layers read are
  // key material: changing any one yields a new trace.
  const std::vector<std::function<void(GateConfig&)>> edits = {
      [](GateConfig& c) { c.n_experts = 16; },
      [](GateConfig& c) { c.n_layers = 5; },
      [](GateConfig& c) { c.ep_ranks = 4; },
      [](GateConfig& c) { c.tokens_per_rank = 2048.0; },
      [](GateConfig& c) { c.personalization = 0.5; },
      [](GateConfig& c) { c.pref_drift_sigma = 0.4; },
      [](GateConfig& c) { c.pref_retention = 0.97; },
      [](GateConfig& c) { c.seed = 100; },
  };
  for (std::size_t k = 0; k < edits.size(); ++k) {
    GateConfig changed = g;
    edits[k](changed);
    EXPECT_NE(memo.get(changed, 10, WarmupPolicy::kClosedForm, 2).get(), a.get())
        << "GateConfig edit #" << k;
  }
  EXPECT_NE(memo.get(g, 11, WarmupPolicy::kClosedForm, 2).get(), a.get());
  EXPECT_NE(memo.get(g, 10, WarmupPolicy::kExactSteps, 2).get(), a.get());
  EXPECT_NE(memo.get(g, 10, WarmupPolicy::kClosedForm, 3).get(), a.get());
  EXPECT_EQ(memo.stats().built, 1u + edits.size() + 3u);
  EXPECT_EQ(memo.stats().shared, 1u);
}

TEST(GateTraceMemo, ConcurrentRequestersShareOneProduction) {
  GateTraceMemo memo;
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const GateTrace>> got(kThreads);
  std::vector<const GateSnapshot*> first(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          memo.get(small_gate(), 20, WarmupPolicy::kClosedForm, 4);
      first[static_cast<std::size_t>(t)] =
          &got[static_cast<std::size_t>(t)]->iteration(1);
    });
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
    EXPECT_EQ(first[static_cast<std::size_t>(t)], first[0]);
  }
  EXPECT_EQ(memo.stats().built, 1u);
  EXPECT_EQ(memo.stats().shared, static_cast<std::size_t>(kThreads - 1));
}

TEST(GateTraceMemo, ThrowingProducerReachesEveryRequesterAndIsNotCached) {
  GateConfig bad = small_gate();
  bad.ep_ranks = 0;  // GateSimulator rejects non-positive dimensions
  GateTraceMemo memo;
  constexpr int kThreads = 4;
  std::vector<int> threw(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      try {
        memo.get(bad, 0, WarmupPolicy::kClosedForm, 1);
      } catch (const std::invalid_argument&) {
        threw[static_cast<std::size_t>(t)] = 1;
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(threw[static_cast<std::size_t>(t)], 1) << t;
  // Nothing was cached: a later request produces (and fails) again.
  EXPECT_THROW(memo.get(bad, 0, WarmupPolicy::kClosedForm, 1),
               std::invalid_argument);
  EXPECT_EQ(memo.stats().built, 0u);
  EXPECT_EQ(memo.stats().shared, 0u);
  // The memo still serves good keys afterwards.
  EXPECT_NE(memo.get(small_gate(), 0, WarmupPolicy::kClosedForm, 1), nullptr);
  EXPECT_EQ(memo.stats().built, 1u);
}

TEST(Gate, AdvanceStepsLandsOnIterationWithValidState) {
  GateConfig g = small_gate();
  GateSimulator a(g);
  a.advance_steps(25);
  EXPECT_EQ(a.iteration(), 25);
  for (int l = 0; l < g.n_layers; ++l) {
    double s = 0.0;
    for (double v : a.expert_load(l)) s += v;
    EXPECT_NEAR(s, 1.0, 1e-9);
    // Realized counts preserve per-rank token totals.
    const Matrix& c = a.dispatch_counts(l);
    for (std::size_t h = 0; h < c.rows(); ++h) {
      double row = 0.0;
      for (std::size_t e = 0; e < c.cols(); ++e) row += c(h, e);
      EXPECT_NEAR(row, g.tokens_per_rank, 1e-6);
    }
  }
  // The fast-forward moved the state: loads differ from a fresh simulator.
  GateSimulator fresh(g);
  fresh.step();
  double diff = 0.0;
  for (std::size_t e = 0; e < a.expert_load(1).size(); ++e)
    diff += std::abs(a.expert_load(1)[e] - fresh.expert_load(1)[e]);
  EXPECT_GT(diff, 1e-3);
}

TEST(Gate, AdvanceStepsMatchesExactOuDistribution) {
  // advance_steps(n) must sample from the same n-step conditional law the
  // stepped walk follows: z_n | z_0 ~ N(a^n z_0, sigma^2 (1-a^{2n})/(1-a^2)).
  // Over many seeds, the centered residual z_n - a^n z_0 of BOTH paths must
  // show mean ~0 and the analytic variance, for the popularity walk (a =
  // kPopularityRetention, sigma = kDriftSigma) and the preference walks
  // (pref_retention / pref_drift_sigma).
  const int n = 40, seeds = 200;
  GateConfig g = small_gate();
  const double a_pop = GateSimulator::kPopularityRetention,
               a_pref = g.pref_retention;
  auto nstep_sd = [n](double a, double sigma) {
    return sigma * std::sqrt((1.0 - std::pow(a * a, n)) / (1.0 - a * a));
  };
  const double sd_pop = nstep_sd(a_pop, GateSimulator::kDriftSigma);
  const double sd_pref = nstep_sd(a_pref, g.pref_drift_sigma);
  std::vector<double> res_pop_closed, res_pop_stepped, res_pref_closed,
      res_pref_stepped;
  for (int s = 0; s < seeds; ++s) {
    g.seed = 1000 + static_cast<std::uint64_t>(s);
    GateSimulator z0(g);        // untouched: exposes the initial state
    GateSimulator closed(g), stepped(g);
    closed.advance_steps(n);
    stepped.skip(n);
    const double an_pop = std::pow(a_pop, n), an_pref = std::pow(a_pref, n);
    for (std::size_t e = 0; e < z0.popularity_logits().size(); ++e) {
      const double base = an_pop * z0.popularity_logits()[e];
      res_pop_closed.push_back(closed.popularity_logits()[e] - base);
      res_pop_stepped.push_back(stepped.popularity_logits()[e] - base);
    }
    for (int r = 0; r < g.ep_ranks; ++r) {
      for (std::size_t e = 0; e < z0.preference_logits(r, 1).size(); ++e) {
        const double base = an_pref * z0.preference_logits(r, 1)[e];
        res_pref_closed.push_back(closed.preference_logits(r, 1)[e] - base);
        res_pref_stepped.push_back(stepped.preference_logits(r, 1)[e] - base);
      }
    }
  }
  auto check = [](const std::vector<double>& xs, double sd, const char* what) {
    double m = 0.0;
    for (double x : xs) m += x;
    m /= static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs) var += (x - m) * (x - m);
    var /= static_cast<double>(xs.size());
    EXPECT_NEAR(m, 0.0, 4.0 * sd / std::sqrt(static_cast<double>(xs.size())))
        << what;
    EXPECT_NEAR(var, sd * sd, 0.12 * sd * sd) << what;
  };
  check(res_pop_closed, sd_pop, "popularity closed-form");
  check(res_pop_stepped, sd_pop, "popularity stepped");
  check(res_pref_closed, sd_pref, "preference closed-form");
  check(res_pref_stepped, sd_pref, "preference stepped");
}

TEST(Gate, AdvanceStepsAppliesTransitionDriftPerBoundary) {
  GateConfig g = small_gate();
  GateSimulator fresh(g), ff(g);
  const Matrix before = fresh.transition(1);
  ff.advance_steps(150);  // crosses iterations 50, 100, 150
  const Matrix& after = ff.transition(1);
  double moved = 0.0;
  for (std::size_t i = 0; i < before.rows(); ++i)
    for (std::size_t j = 0; j < before.cols(); ++j)
      moved += std::abs(after(i, j) - before(i, j));
  EXPECT_GT(moved, 1e-3);  // drift happened
  for (std::size_t src = 0; src < after.cols(); ++src) {
    double col = 0.0;
    for (std::size_t dst = 0; dst < after.rows(); ++dst) col += after(dst, src);
    EXPECT_NEAR(col, 1.0, 1e-9);  // still column-stochastic
  }
}

TEST(Gate, PreferenceDriftMovesHotPairs) {
  // The hot entries of the dispatch matrix must wander over ~100 iterations
  // (this is what defeats one-shot topologies).
  GateConfig g = small_gate();
  GateSimulator gs(g);
  gs.step();
  const Matrix early = gs.rank_dispatch_matrix(1, 1.0);
  gs.skip(150);
  const Matrix late = gs.rank_dispatch_matrix(1, 1.0);
  double num = 0.0, den_a = 0.0, den_b = 0.0;
  for (std::size_t i = 0; i < early.rows(); ++i)
    for (std::size_t j = 0; j < early.cols(); ++j) {
      if (i == j) continue;
      num += early(i, j) * late(i, j);
      den_a += early(i, j) * early(i, j);
      den_b += late(i, j) * late(i, j);
    }
  const double cosine = num / std::sqrt(den_a * den_b);
  EXPECT_LT(cosine, 0.95);  // decorrelated, not identical
  EXPECT_GT(cosine, 0.2);   // but still structured traffic
}

TEST(Gate, DeterministicAcrossRuns) {
  GateSimulator a(small_gate()), b(small_gate());
  a.step();
  b.step();
  EXPECT_EQ(a.dispatch_counts(2).data(), b.dispatch_counts(2).data());
}

TEST(Gate, ExpertsPerRankAggregation) {
  GateConfig g = small_gate();
  g.n_experts = 16;  // 2 experts per rank
  GateSimulator gs(g);
  const Matrix t = gs.rank_dispatch_matrix(0, 1.0);
  EXPECT_EQ(t.rows(), 8u);
  EXPECT_NEAR(t.sum(), 8 * 4096.0, 50.0);
}

// --------------------------------------------------------------- traffic ----

TEST(Traffic, Fig2SharesMixtral) {
  const auto m = mixtral_8x7b();
  const auto p = default_parallelism(m);
  const auto v = iteration_traffic(m, p);
  // Mixtral 8x7B: TP dominates (~60%), EP second (~30%), PP+DP small (Fig. 2).
  EXPECT_GT(v.tp / v.total(), 0.45);
  EXPECT_GT(v.ep / v.total(), 0.15);
  EXPECT_LT((v.pp + v.dp) / v.total(), 0.15);
}

TEST(Traffic, Fig2SharesLlamaAndQwen) {
  for (const auto& m : {llama_moe(), qwen_moe()}) {
    const auto p = default_parallelism(m);
    const auto v = iteration_traffic(m, p);
    EXPECT_DOUBLE_EQ(v.tp, 0.0) << m.name;  // TP degree 1
    EXPECT_GT(v.ep / v.total(), 0.8) << m.name;  // EP dominates (Fig. 2)
  }
}

TEST(Traffic, EpBytesScaleWithTopK) {
  auto m = mixtral_8x7b();
  const auto p = default_parallelism(m);
  const double b2 = ep_all_to_all_bytes(m, p);
  m.top_k = 4;
  EXPECT_NEAR(ep_all_to_all_bytes(m, p) / b2, 2.0, 1e-9);
}

TEST(Traffic, AggregateToServersPreservesSumAndDiagonal) {
  Matrix rank(4, 4, 1.0);
  const std::vector<int> map = {0, 0, 1, 1};
  const Matrix s = aggregate_to_servers(rank, map, 2);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_NEAR(s.sum(), rank.sum(), 1e-9);
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);  // intra-server traffic on the diagonal
  EXPECT_DOUBLE_EQ(s(0, 1), 4.0);
}

TEST(Traffic, AggregateToServersRejectsMisshapenInput) {
  const Matrix rank(4, 4, 1.0);
  // Non-square matrix, a map of the wrong length, and map entries outside
  // the local servers (which used to write out of bounds).
  EXPECT_THROW(aggregate_to_servers(Matrix(4, 3, 1.0), {0, 0, 1, 1}, 2),
               std::invalid_argument);
  EXPECT_THROW(aggregate_to_servers(rank, {0, 0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(aggregate_to_servers(rank, {0, 0, 1, 2}, 2), std::invalid_argument);
  EXPECT_THROW(aggregate_to_servers(rank, {0, -1, 1, 1}, 2), std::invalid_argument);
}

TEST(Traffic, SparsityMetric) {
  Matrix m(3, 3, 0.0);
  m(0, 1) = 100.0;
  m(1, 2) = 1.0;
  // 5 of 6 off-diagonal entries below 10% of max.
  EXPECT_NEAR(matrix_sparsity(m, 0.1), 5.0 / 6.0, 1e-9);
}

TEST(Traffic, BlockLocalityMetric) {
  Matrix m(4, 4, 0.0);
  m(0, 1) = 10.0;  // within block [0,1]
  m(2, 3) = 10.0;  // within block [2,3]
  EXPECT_DOUBLE_EQ(block_locality(m, 2), 1.0);
  m(0, 3) = 20.0;
  EXPECT_DOUBLE_EQ(block_locality(m, 2), 0.5);
}

TEST(Traffic, BlockLocalityRejectsNonPositiveBlock) {
  const Matrix m(4, 4, 1.0);
  EXPECT_THROW(block_locality(m, 0), std::invalid_argument);
  EXPECT_THROW(block_locality(m, -2), std::invalid_argument);
}

TEST(Traffic, GpuMatrixShowsEpLocality) {
  const auto m = mixtral_8x7b();
  auto p = default_parallelism(m);
  p.dp = 1;
  Placement pl(p, 8);
  GateConfig g;
  g.n_experts = m.n_experts;
  g.n_layers = 4;
  g.ep_ranks = p.ep;
  g.tokens_per_rank = 1024;
  GateSimulator gs(g);
  std::vector<Matrix> mats;
  for (int l = 0; l < 4; ++l) mats.push_back(gs.rank_dispatch_matrix(l, 8192.0));
  const Matrix gpu = gpu_traffic_matrix(m, p, pl, mats);
  EXPECT_EQ(gpu.rows(), 128u);
  // EP+TP traffic stays within 32-GPU blocks; PP crosses. Strong locality.
  EXPECT_GT(block_locality(gpu, 32), 0.8);
}

}  // namespace
}  // namespace mixnet::moe
