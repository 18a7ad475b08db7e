// Training-simulation sweep scenarios: every figure whose data points are
// TrainingSimulator runs (Figs. 3/17, 10, 12, 13, 14, 16, 25, 26, 27, 28).
// Each is a ScenarioSpec + SweepSpec grid executed by run_sweep(); result
// rows index the grid exactly (Sweep::flat), never by re-matching axis
// values. Per-figure paper-shape comparisons live in EXPERIMENTS.md.
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "topo/fabric.h"

namespace mixnet::exp {
namespace {

std::vector<std::string> fabric_columns(const std::string& first,
                                        const std::vector<topo::FabricKind>& kinds) {
  std::vector<std::string> head = {first};
  for (auto k : kinds) head.emplace_back(topo::to_string(k));
  return head;
}

// ---------------------------------------------------------------------------
// Figure 3 + Figure 17: forward-pass phase timeline of one MoE block vs
// micro-batch size, on a 400 Gbps MixNet fabric.

ScenarioResult run_fig03(const RunContext& ctx) {
  ScenarioResult out;
  out.name = "fig03";
  for (const auto& model :
       {moe::mixtral_8x7b(), moe::llama_moe(), moe::qwen_moe()}) {
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kMixNet, 400.0))
            .micro_batches({8, 16, 24, 32})
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);

    ResultTable table(model.name == "Mixtral 8x7B" ? "Figure 3" : "Figure 17",
                      model.name + " MoE-block timeline, 400 Gbps (ms)",
                      {"mbs", "attn", "gate", "a2a#1", "expert", "a2a#2", "norm",
                       "a2a share"},
                      12);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& t = results[i].timeline;
      const double a2a_share =
          static_cast<double>(t.a2a1 + t.a2a2) / static_cast<double>(t.total());
      table.add_row({sweep.points()[i].labels[0], Cell::num(ns_to_ms(t.attention), 1),
                     Cell::num(ns_to_ms(t.gate), 2), Cell::num(ns_to_ms(t.a2a1), 1),
                     Cell::num(ns_to_ms(t.expert), 1), Cell::num(ns_to_ms(t.a2a2), 1),
                     Cell::num(ns_to_ms(t.add_norm), 2),
                     Cell::num(100.0 * a2a_share, 1, "", "%")});
    }
    out.tables.push_back(std::move(table));
  }
  out.note =
      "Paper: Mixtral a2a share 33-55%, expert comp >100 ms at mbs 8;\n"
      "LLaMA-MoE 42-58%; Qwen-MoE up to ~68%.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 10: testbed experiment -- 32-GPU / 4-server prototype (truncated
// models, 100 Gbps NICs), EPS baseline vs the MixNet 1 EPS + 3 OCS split.

struct TestbedModel {
  moe::MoeModelConfig model;
  int layers;  // truncated depth that fits 32 A100s (§C)
  int ep, tp, pp;
};

ScenarioResult run_fig10(const RunContext& ctx) {
  const std::vector<TestbedModel> models = {
      {moe::mixtral_8x7b(), 7, 8, 4, 1},
      {moe::qwen_moe(), 12, 16, 1, 2},
      {moe::llama_moe(), 16, 16, 1, 2},
  };
  std::vector<AxisValue> model_axis;
  for (const auto& tm : models) {
    model_axis.push_back({tm.model.name, [tm](ScenarioSpec& s) {
      s.configure([tm](sim::TrainingConfig& cfg) {
        cfg.model = tm.model;
        cfg.model.n_blocks = tm.layers;
        cfg.par.ep = tm.ep;
        cfg.par.tp = tm.tp;
        cfg.par.pp = tm.pp;
        cfg.par.micro_batch = 8;
        cfg.par.n_microbatches = 4;
        cfg.par_overridden = true;
        cfg.nic_gbps = 100.0;
        cfg.nics_per_server = 4;
        cfg.eps_nics = 1;  // MixNet prototype: 1 EPS + 3 OCS NICs
        cfg.optical_degree = 3;
        // Commodity A100 servers with 4 NVLink bridges (not a full NVSwitch).
        cfg.nvlink_gbps_per_gpu = 2400.0;
      });
    }});
  }
  const Sweep sweep =
      SweepSpec(ScenarioSpec().iterations(2))
          .axis("model", std::move(model_axis))
          .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
          .expand();
  const auto results = run_sweep(sweep.points(), ctx);

  ScenarioResult out;
  out.name = "fig10";
  ResultTable table("Figure 10", "Testbed iteration time, 32 GPUs (s)",
                    {"Model", "EPS 4x100G", "MixNet (1 EPS + 3 OCS)", "ratio"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    const double eps = results[sweep.flat({m, 0})].iter_sec;
    const double mix = results[sweep.flat({m, 1})].iter_sec;
    table.add_row({models[m].model.name, Cell::num(eps, 2), Cell::num(mix, 2),
                   Cell::num(mix / eps, 3)});
  }
  out.tables.push_back(std::move(table));
  out.note =
      "Paper: MixNet comparable to the ideal EPS baseline (ratio ~1)\n"
      "while using 12 optical + 4 electrical ports instead of 16\n"
      "electrical ports.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 12: normalized training iteration time vs link bandwidth for four
// MoE models on a 1024-GPU cluster, five fabrics. Normalized to fat-tree at
// the highest bandwidth (the paper's "1.0").

ScenarioResult run_fig12(const RunContext& ctx) {
  const std::vector<double> bandwidths = {100.0, 200.0, 400.0, 800.0};
  ScenarioResult out;
  out.name = "fig12";
  for (const auto& model : moe::simulation_models()) {
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kFatTree, 800.0))
            .fabrics(evaluated_fabrics())
            .bandwidths(bandwidths)
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);
    // Fat-tree at the highest bandwidth is a grid point: index it exactly.
    const double ref = results[sweep.flat({0, bandwidths.size() - 1})].iter_sec;

    ResultTable table("Figure 12",
                      model.name + " normalized iteration time (1024 GPUs)",
                      fabric_columns("Gbps", evaluated_fabrics()), 20);
    for (std::size_t g = 0; g < bandwidths.size(); ++g) {
      std::vector<Cell> cells = {Cell::num(bandwidths[g], 0)};
      for (std::size_t k = 0; k < evaluated_fabrics().size(); ++k)
        cells.push_back(Cell::num(results[sweep.flat({k, g})].iter_sec / ref, 3));
      table.add_row(std::move(cells));
    }
    out.tables.push_back(std::move(table));
  }
  out.note =
      "Paper: MixNet ~= fat-tree ~= rail-optimized; MixNet beats\n"
      "TopoOpt by 1.3-1.5x and oversubscribed fat-tree by up to 1.6x;\n"
      "gaps shrink with bandwidth.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 13: performance-cost Pareto analysis. Every (fabric, bandwidth)
// point is relative networking cost vs relative performance; the derived
// performance-per-dollar is the paper's headline cost-efficiency metric.

ScenarioResult run_fig13(const RunContext& ctx) {
  const std::vector<double> bandwidths = {100.0, 200.0, 400.0, 800.0};
  const auto& kinds = evaluated_fabrics();
  ScenarioResult out;
  out.name = "fig13";
  for (const auto& model : moe::simulation_models()) {
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kFatTree, 100.0))
            .fabrics(kinds)
            .bandwidths(bandwidths)
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);

    std::vector<double> costs(sweep.size());
    double max_cost = 0.0, min_time = 1e300;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (std::size_t g = 0; g < bandwidths.size(); ++g) {
        const std::size_t i = sweep.flat({k, g});
        costs[i] = cost::fabric_cost_musd(kinds[k], 1024,
                                          static_cast<int>(bandwidths[g]));
        max_cost = std::max(max_cost, costs[i]);
        min_time = std::min(min_time, results[i].iter_sec);
      }
    }
    // Performance-per-dollar of the grid point at exact axis indices -- the
    // historical harness re-matched points by `p.gbps == g` double equality.
    auto ppd_at = [&](std::size_t k, std::size_t g) {
      const std::size_t i = sweep.flat({k, g});
      return (min_time / results[i].iter_sec) / (costs[i] / max_cost);
    };

    ResultTable table("Figure 13", model.name + " relative cost vs performance",
                      {"Fabric", "Gbps", "rel.cost", "rel.perf", "perf/$ (rel)"},
                      20);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (std::size_t g = 0; g < bandwidths.size(); ++g) {
        const std::size_t i = sweep.flat({k, g});
        table.add_row({topo::to_string(kinds[k]), Cell::num(bandwidths[g], 0),
                       Cell::num(costs[i] / max_cost, 3),
                       Cell::num(min_time / results[i].iter_sec, 3),
                       Cell::num(ppd_at(k, g), 2)});
      }
    }
    // Cost-efficiency ratios vs the baselines at 100 and 400 Gbps (paper
    // numbers). Axis indices: fat-tree 0, rail-optimized 1, MixNet 4;
    // 100 Gbps 0, 400 Gbps 2.
    for (std::size_t g : {std::size_t{0}, std::size_t{2}}) {
      table.add_footer(printf_str(
          "  @%3.0fG: MixNet perf/$ = %.2fx fat-tree, %.2fx rail-optimized",
          bandwidths[g], ppd_at(4, g) / ppd_at(0, g), ppd_at(4, g) / ppd_at(1, g)));
    }
    out.tables.push_back(std::move(table));
  }
  out.note =
      "Paper: MixNet 1.2-1.5x (100G) and 1.9-2.3x (400G) higher\n"
      "cost-efficiency than fat-tree; defines the Pareto front.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 14: failure resiliency -- normalized iteration time under NIC and
// GPU/server failures (MixNet, 400 Gbps).

ScenarioResult run_fig14(const RunContext& ctx) {
  using Kind = control::FailureScenario::Kind;
  const std::vector<std::pair<Kind, const char*>> scenarios = {
      {Kind::kNone, "No failure"},
      {Kind::kOneNic, "One NIC failure"},
      {Kind::kTwoNic, "Two NIC failures"},
      {Kind::kOneGpu, "One GPU failure"},
      {Kind::kServerDown, "One server (8 GPUs) failure"},
  };
  ScenarioResult out;
  out.name = "fig14";
  for (const auto& model : {moe::mixtral_8x22b(), moe::deepseek_r1()}) {
    std::vector<AxisValue> failure_axis;
    for (const auto& [kind, label] : scenarios)
      failure_axis.push_back(
          {label, [kind](ScenarioSpec& s) { s.failure({kind, 0}); }});
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kMixNet, 400.0)
                      .iterations(2))
            .axis("failure", std::move(failure_axis))
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);

    ResultTable table("Figure 14", model.name + " under failures (400 Gbps)",
                      {"Scenario", "iter (s)", "overhead"}, 30);
    const double baseline = results[0].iter_sec;  // kNone row
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const double t = results[i].iter_sec;
      table.add_row({sweep.points()[i].labels[0], Cell::num(t, 2),
                     Cell::num(100.0 * (t - baseline) / baseline, 1, "+", "%")});
    }
    out.tables.push_back(std::move(table));
  }
  out.note =
      "Paper: NIC failures +0.3%..+5.4%; GPU failure +2.9%..+5.1%;\n"
      "full-server replacement +6.5%..+12.8%.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 16: look-ahead (§8) -- MixNet with co-packaged optical I/O vs a
// GB200 NVL72 cluster, 2048 GPUs training DeepSeek-V3, matched GPU I/O.

void nvl_config(sim::TrainingConfig& cfg, double total_io_tbps, bool optical_io) {
  cfg.model = moe::deepseek_v3();
  cfg.par = moe::default_parallelism(cfg.model);
  cfg.par.micro_batch = 240;  // §8 setup
  cfg.par.n_microbatches = 2;
  cfg.par_overridden = true;
  cfg.gpus_per_server = 64;  // one NVL72 domain (64 usable GPUs)
  cfg.nic_gbps = 800.0;
  const double remaining_gbps = total_io_tbps * 1000.0 - 800.0;
  if (!optical_io) {
    cfg.fabric_kind = topo::FabricKind::kNvl72;
    cfg.nics_per_server = 64;  // one 800G NIC per GPU
    cfg.nvlink_gbps_per_gpu = remaining_gbps;
  } else {
    cfg.fabric_kind = topo::FabricKind::kMixNetOpticalIO;
    cfg.nics_per_server = 96;  // 64 Ethernet + 32 optical ports per domain
    cfg.eps_nics = 64;
    cfg.nvlink_gbps_per_gpu = remaining_gbps / 2.0;
    cfg.ocs_nic_gbps = remaining_gbps / 2.0 * 64.0 / 32.0;
  }
}

ScenarioResult run_fig16(const RunContext& ctx) {
  const std::vector<double> tbps_axis = {8.0, 16.0};
  std::vector<AxisValue> io_axis;
  for (double tbps : tbps_axis)
    io_axis.push_back({fmt(tbps, 0) + " Tbps", [tbps](ScenarioSpec& s) {
      s.configure([tbps](sim::TrainingConfig& cfg) {
        // Fabric choice is applied by the mode axis below.
        const bool optical = cfg.fabric_kind == topo::FabricKind::kMixNetOpticalIO;
        nvl_config(cfg, tbps, optical);
      });
    }});
  const Sweep sweep =
      SweepSpec(ScenarioSpec())
          .axis("total_io", std::move(io_axis))
          .axis("mode",
                {{"NVL72",
                  [](ScenarioSpec& s) {
                    s.fabric(topo::FabricKind::kNvl72);
                  }},
                 {"MixNet optical I/O",
                  [](ScenarioSpec& s) {
                    s.fabric(topo::FabricKind::kMixNetOpticalIO);
                  }}})
          .expand();
  const auto results = run_sweep(sweep.points(), ctx);

  ScenarioResult out;
  out.name = "fig16";
  ResultTable table("Figure 16",
                    "NVL72 vs MixNet w/ optical I/O, DeepSeek-V3, 2048 GPUs",
                    {"Total GPU I/O", "NVL72 (s)", "MixNet optical I/O (s)",
                     "speedup"},
                    26);
  for (std::size_t t = 0; t < tbps_axis.size(); ++t) {
    const double nvl = results[sweep.flat({t, 0})].iter_sec;
    const double mix = results[sweep.flat({t, 1})].iter_sec;
    table.add_row({sweep.points()[sweep.flat({t, 0})].labels[0],
                   Cell::num(nvl, 2), Cell::num(mix, 2),
                   Cell::num(nvl / mix, 2, "", "x")});
  }
  out.tables.push_back(std::move(table));
  out.note =
      "Paper: MixNet (w/ optical I/O) ~1.3x faster at 8 Tbps; gains\n"
      "persist at 16 Tbps.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 25 (§D.4): Mixtral speedups at larger batch sizes (32 and 64).

ScenarioResult run_fig25(const RunContext& ctx) {
  const std::vector<topo::FabricKind> kinds = {
      topo::FabricKind::kFatTree, topo::FabricKind::kRailOptimized,
      topo::FabricKind::kTopoOpt, topo::FabricKind::kMixNet};
  const std::vector<double> bandwidths = {100.0, 200.0, 400.0, 800.0};
  ScenarioResult out;
  out.name = "fig25";
  for (const auto& model : {moe::mixtral_8x22b(), moe::mixtral_8x7b()}) {
    for (int batch : {32, 64}) {
      const Sweep sweep =
          SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kFatTree, 800.0,
                                        /*n_microbatches=*/2)
                        .micro_batch(batch))
              .fabrics(kinds)
              .bandwidths(bandwidths)
              .expand();
      const auto results = run_sweep(sweep.points(), ctx);
      const double ref = results[sweep.flat({0, bandwidths.size() - 1})].iter_sec;

      ResultTable table("Figure 25",
                        model.name + " batch " + std::to_string(batch) +
                            " normalized iteration time",
                        fabric_columns("Gbps", kinds), 20);
      double mix_sum = 0.0, topoopt_sum = 0.0;
      for (std::size_t g = 0; g < bandwidths.size(); ++g) {
        std::vector<Cell> cells = {Cell::num(bandwidths[g], 0)};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
          const double t = results[sweep.flat({k, g})].iter_sec;
          if (kinds[k] == topo::FabricKind::kMixNet) mix_sum += t;
          if (kinds[k] == topo::FabricKind::kTopoOpt) topoopt_sum += t;
          cells.push_back(Cell::num(t / ref, 3));
        }
        table.add_row(std::move(cells));
      }
      table.add_footer(
          printf_str("  average TopoOpt/MixNet: %.2fx", topoopt_sum / mix_sum));
      out.tables.push_back(std::move(table));
    }
  }
  out.note =
      "Paper: MixNet beats TopoOpt by 1.8x (batch 32) and 2.0x\n"
      "(batch 64) on Mixtral 8x7B.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 26 (§D.5): scalability -- normalized tokens/s and performance per
// dollar vs cluster size, Mixtral 8x7B at 400 Gbps, scaling data parallelism.

ScenarioResult run_fig26(const RunContext& ctx) {
  const std::vector<topo::FabricKind> kinds = {
      topo::FabricKind::kMixNet, topo::FabricKind::kFatTree,
      topo::FabricKind::kRailOptimized};
  const std::vector<int> cluster_sizes = {1024, 2048, 4096, 8192, 16384, 32768};
  const auto model = moe::mixtral_8x7b();

  std::vector<AxisValue> size_axis;
  for (int gpus : cluster_sizes)
    size_axis.push_back({std::to_string(gpus), [gpus](ScenarioSpec& s) {
      s.configure([gpus](sim::TrainingConfig& cfg) {
        cfg.par.dp = gpus / cfg.par.gpus_per_replica();
      });
    }});
  const Sweep sweep =
      SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kMixNet, 400.0,
                                    /*n_microbatches=*/2))
          .axis("gpus", std::move(size_axis))
          .fabrics(kinds)
          .expand();
  const auto results = run_sweep(sweep.points(), ctx);
  auto tput = [&](std::size_t s, std::size_t k) {
    return results[sweep.flat({s, k})].last().tokens_per_sec();
  };
  const double ref = tput(0, 0);  // 1024-GPU MixNet = 1.0

  ScenarioResult out;
  out.name = "fig26";
  ResultTable ta("Figure 26a", "Normalized tokens/s vs cluster size (400 Gbps)",
                 fabric_columns("# GPUs", kinds), 20);
  for (std::size_t s = 0; s < cluster_sizes.size(); ++s) {
    std::vector<Cell> cells = {std::to_string(cluster_sizes[s])};
    for (std::size_t k = 0; k < kinds.size(); ++k)
      cells.push_back(Cell::num(tput(s, k) / ref, 2));
    ta.add_row(std::move(cells));
  }
  out.tables.push_back(std::move(ta));

  ResultTable tb("Figure 26b", "Relative performance per dollar vs cluster size",
                 fabric_columns("# GPUs", kinds), 20);
  for (std::size_t s = 0; s < cluster_sizes.size(); ++s) {
    const int gpus = cluster_sizes[s];
    const double base =
        tput(s, 1) / cost::fabric_cost_musd(topo::FabricKind::kFatTree, gpus, 400);
    std::vector<Cell> cells = {std::to_string(gpus)};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const double ppd = tput(s, k) / cost::fabric_cost_musd(kinds[k], gpus, 400);
      cells.push_back(Cell::num(ppd / base, 2));
    }
    tb.add_row(std::move(cells));
  }
  out.tables.push_back(std::move(tb));
  out.note =
      "Paper: tokens/s scales linearly for all three; MixNet keeps a\n"
      "~2x performance-per-dollar lead at every cluster size.";
  return out;
}

// ---------------------------------------------------------------------------
// fig26-xl: Figure 26's scalability story pushed to 100k+ GPUs on the
// analytic electrical core (CoreModel::kAnalytic, DESIGN.md §13). The
// explicit leaf-spine graph is quadratic in flows-over-uplinks at this
// scale; the analytic core collapses it to per-NIC server uplinks with
// provably identical max-min allocations at oversub <= 1. The scenario
// carries its own proof obligations: explicit-vs-analytic iteration times
// must agree at small scale, and normalized throughput must grow
// monotonically with cluster size (the paper's linear-scaling shape), from
// 1k up to 131k GPUs.

ScenarioResult run_fig26_xl(const RunContext& ctx) {
  const auto model = moe::mixtral_8x7b();

  auto dp_for = [](int gpus) {
    return [gpus](ScenarioSpec& s) {
      s.configure([gpus](sim::TrainingConfig& cfg) {
        cfg.par.dp = gpus / cfg.par.gpus_per_replica();
      });
    };
  };

  ScenarioResult out;
  out.name = "fig26-xl";

  // -- Equivalence arm: same seed, same config, both core models. ----------
  const std::vector<int> eq_sizes = {1024, 2048};
  {
    std::vector<AxisValue> size_axis;
    for (int gpus : eq_sizes)
      size_axis.push_back({std::to_string(gpus), dp_for(gpus)});
    std::vector<AxisValue> core_axis;
    for (topo::CoreModel m :
         {topo::CoreModel::kExplicit, topo::CoreModel::kAnalytic})
      core_axis.push_back({topo::to_string(m),
                           [m](ScenarioSpec& s) { s.core_model(m); }});
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kFatTree, 400.0,
                                      /*n_microbatches=*/2))
            .axis("gpus", std::move(size_axis))
            .axis("core", std::move(core_axis))
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);
    ResultTable t("fig26-xl equivalence",
                  "Explicit vs analytic core, non-oversubscribed fat-tree "
                  "(400 Gbps)",
                  {"# GPUs", "explicit s/iter", "analytic s/iter", "rel.err"},
                  18);
    for (std::size_t s = 0; s < eq_sizes.size(); ++s) {
      const double te = results[sweep.flat({s, 0})].iter_sec;
      const double ta = results[sweep.flat({s, 1})].iter_sec;
      const double rel = te > 0.0 ? std::abs(ta - te) / te : 1.0;
      t.add_row({std::to_string(eq_sizes[s]), Cell::num(te, 6),
                 Cell::num(ta, 6), Cell::num(rel, 12)});
    }
    out.tables.push_back(std::move(t));
  }

  // -- Scale arm: analytic core only; its 65k/131k points are the graph
  // sizes the explicit core exists to avoid. ---------------------------
  const std::vector<int> sizes = {1024, 2048, 4096, 8192, 65536, 131072};
  {
    std::vector<AxisValue> size_axis;
    for (int gpus : sizes)
      size_axis.push_back({std::to_string(gpus), dp_for(gpus)});
    const Sweep sweep =
        SweepSpec(ScenarioSpec::paper(model, topo::FabricKind::kFatTree, 400.0,
                                      /*n_microbatches=*/2)
                      .core_model(topo::CoreModel::kAnalytic))
            .axis("gpus", std::move(size_axis))
            .expand();
    const auto results = run_sweep(sweep.points(), ctx);
    const double ref = results[sweep.flat({std::size_t{0}})]
                           .last()
                           .tokens_per_sec();
    ResultTable t("fig26-xl scale",
                  "Normalized tokens/s vs cluster size, analytic core "
                  "(400 Gbps)",
                  {"# GPUs", "tokens/s ratio", "s/iter"}, 18);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto& r = results[sweep.flat({s})];
      t.add_row({std::to_string(sizes[s]),
                 Cell::num(r.last().tokens_per_sec() / ref, 3),
                 Cell::num(r.iter_sec, 4)});
    }
    out.tables.push_back(std::move(t));
  }

  // The largest swept fabric, as the canonical topology digest tooling
  // consumes; the shape check asserts the core really was collapsed.
  const topo::Fabric fab = topo::Fabric::build(
      topo::FabricConfig::fat_tree(sizes.back() / 8)
          .with_core_model(topo::CoreModel::kAnalytic));
  out.note = "fabric: " + fab.describe() +
             "\nPaper shape: tokens/s scales ~linearly with cluster size; "
             "the analytic core must reproduce the explicit core's "
             "iteration times at small scale.";
  return out;
}

std::vector<std::string> check_fig26_xl(const ScenarioResult& res) {
  std::vector<std::string> bad;
  if (res.tables.size() < 2) {
    bad.emplace_back("fig26-xl: expected equivalence + scale tables");
    return bad;
  }
  const auto& eq = res.tables[0];
  if (eq.rows().empty()) bad.emplace_back("fig26-xl: equivalence table empty");
  for (const auto& row : eq.rows()) {
    if (row.size() < 4) {
      bad.emplace_back("fig26-xl: short equivalence row");
      continue;
    }
    // Durations land on the integer-nanosecond grid, so the two core models
    // may legitimately differ by ulp-level rate noise rounded to a few ns;
    // 1e-6 relative is ~1000 ns/iter, far below any modeling error.
    if (!(row[3].value() <= 1e-6))
      bad.push_back(printf_str(
          "fig26-xl @%s GPUs: explicit vs analytic rel.err %.3g > 1e-6",
          row[0].text().c_str(), row[3].value()));
  }
  const auto& sc = res.tables[1];
  if (sc.rows().size() < 3) {
    bad.emplace_back("fig26-xl: scale table needs >= 3 cluster sizes");
    return bad;
  }
  double prev = 0.0;
  for (const auto& row : sc.rows()) {
    if (row.size() < 3 || !(row[1].value() > 0.0) ||
        !std::isfinite(row[1].value())) {
      bad.push_back(printf_str("fig26-xl: bad throughput ratio row"));
      continue;
    }
    if (!(row[1].value() > prev))
      bad.push_back(printf_str(
          "fig26-xl @%s GPUs: tokens/s ratio %.3f not above previous %.3f "
          "(scaling must be monotone)",
          row[0].text().c_str(), row[1].value(), prev));
    prev = row[1].value();
  }
  if (res.note.find("\"core_collapsed\":true") == std::string::npos)
    bad.emplace_back(
        "fig26-xl: fabric describe() does not report a collapsed core");
  return bad;
}

// ---------------------------------------------------------------------------
// Figure 27 (§D.6): impact of the optical degree alpha, cost-equivalent
// comparison (the 8-NIC budget splits alpha OCS : 8-alpha EPS).

ScenarioResult run_fig27(const RunContext& ctx) {
  std::vector<AxisValue> alpha_axis;
  for (int alpha : {1, 2, 4, 6})
    alpha_axis.push_back({std::to_string(alpha), [alpha](ScenarioSpec& s) {
      s.configure([alpha](sim::TrainingConfig& cfg) {
        cfg.eps_nics = cfg.nics_per_server - alpha;
        // Cost-equivalent: the electrical ports' bandwidth absorbs the
        // budget not spent on OCS ports (§D.6 methodology).
        cfg.nic_gbps =
            cost::cost_equivalent_eps_gbps(alpha, cfg.nics_per_server, 100);
        cfg.ocs_nic_gbps = 100.0;
      });
    }});
  const Sweep sweep =
      SweepSpec(ScenarioSpec::paper(moe::mixtral_8x22b(),
                                    topo::FabricKind::kMixNet, 100.0)
                    .iterations(2))
          .axis("alpha", std::move(alpha_axis))
          .expand();
  const auto results = run_sweep(sweep.points(), ctx);

  ScenarioResult out;
  out.name = "fig27";
  ResultTable table("Figure 27", "Mixtral 8x22B, 128 servers, 100 Gbps",
                    {"optical degree", "iter (s)", "normalized"}, 18);
  const double base = results[0].iter_sec;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double t = results[i].iter_sec;
    table.add_row({sweep.points()[i].labels[0], Cell::num(t, 2),
                   Cell::num(t / base, 3)});
  }
  out.tables.push_back(std::move(table));
  out.note = "Paper: normalized iteration time decreases with alpha (1 -> 6).";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 28 (§D.7): sensitivity to OCS reconfiguration latency, delays from
// 1 us to 10 s.

ScenarioResult run_fig28(const RunContext& ctx) {
  const std::vector<std::pair<TimeNs, std::string>> delays = {
      {us_to_ns(1), "1 us"},       {us_to_ns(10), "10 us"},
      {us_to_ns(100), "100 us"},   {ms_to_ns(1), "1 ms"},
      {ms_to_ns(10), "10 ms"},     {ms_to_ns(25), "25 ms (default)"},
      {ms_to_ns(100), "100 ms"},   {sec_to_ns(1), "1 s"},
      {sec_to_ns(10), "10 s"},
  };
  std::vector<AxisValue> delay_axis;
  for (const auto& [delay, label] : delays)
    delay_axis.push_back(
        {label, [delay](ScenarioSpec& s) { s.reconfig_delay(delay); }});
  const Sweep sweep =
      SweepSpec(ScenarioSpec::paper(moe::mixtral_8x22b(),
                                    topo::FabricKind::kMixNet, 400.0))
          .axis("delay", std::move(delay_axis))
          .expand();
  const auto results = run_sweep(sweep.points(), ctx);

  ScenarioResult out;
  out.name = "fig28";
  ResultTable table("Figure 28", "Mixtral 8x22B vs reconfiguration latency (400G)",
                    {"reconfig delay", "iter (s)", "normalized", "blocked (s)"},
                    18);
  const double base = ns_to_sec(results[0].last().total);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = results[i].last();
    const double t = ns_to_sec(r.total);
    table.add_row({sweep.points()[i].labels[0], Cell::num(t, 2),
                   Cell::num(t / base, 3),
                   Cell::num(ns_to_sec(r.reconfig_blocked), 2)});
  }
  out.tables.push_back(std::move(table));
  out.note =
      "Paper: flat through tens of ms, obvious degradation beyond\n"
      "1000 ms (second-scale OCS unusable for in-training reconfig).";
  return out;
}

}  // namespace

// Structural paper-shape checks, run by the figure pass (see
// ScenarioInfo::check). fig12 tables: one per model, rows = bandwidths,
// columns Gbps | fat-tree | rail-optimized | oversub | TopoOpt | MixNet,
// values normalized iteration time (lower is better).
std::vector<std::string> check_fig12(const ScenarioResult& res) {
  std::vector<std::string> bad;
  for (const auto& t : res.tables) {
    // A malformed table is itself a shape violation — report it rather than
    // indexing past the end (this gate must never be the thing that crashes).
    if (t.rows().empty()) {
      bad.push_back(printf_str("%s: table has no rows", t.title().c_str()));
      continue;
    }
    bool short_row = false;
    for (const auto& row : t.rows())
      if (row.size() < 6) short_row = true;
    if (short_row) {
      bad.push_back(printf_str("%s: row with fewer than 6 columns",
                               t.title().c_str()));
      continue;
    }
    for (const auto& row : t.rows()) {
      const double gbps = row[0].value();
      for (std::size_t c = 1; c < row.size(); ++c)
        if (!(row[c].value() > 0.0) || !std::isfinite(row[c].value()))
          bad.push_back(printf_str("%s @%g G: non-positive normalized time",
                                   t.title().c_str(), gbps));
      const double fat_tree = row[1].value();
      const double topoopt = row[4].value();
      const double mixnet = row[5].value();
      if (!(mixnet < topoopt))
        bad.push_back(printf_str(
            "%s @%g G: MixNet (%.3f) not faster than TopoOpt (%.3f)",
            t.title().c_str(), gbps, mixnet, topoopt));
      if (!(mixnet < 1.4 * fat_tree))
        bad.push_back(printf_str(
            "%s @%g G: MixNet (%.3f) >40%% behind fat-tree (%.3f)",
            t.title().c_str(), gbps, mixnet, fat_tree));
    }
    // The TopoOpt gap narrows as bandwidth rises (paper: gaps shrink).
    const auto& first = t.rows().front();
    const auto& last = t.rows().back();
    if (!(last[4].value() / last[5].value() <
          first[4].value() / first[5].value() + 1e-9))
      bad.push_back(printf_str("%s: TopoOpt/MixNet gap fails to narrow with "
                               "bandwidth", t.title().c_str()));
  }
  if (res.tables.empty()) bad.emplace_back("fig12: no tables produced");
  return bad;
}

// fig13 tables: one per model, rows = (fabric, bandwidth) with columns
// Fabric | Gbps | rel.cost | rel.perf | perf/$ (rel). MixNet must be more
// cost-efficient than fat-tree at every bandwidth (paper: 1.2-2.3x).
std::vector<std::string> check_fig13(const ScenarioResult& res) {
  std::vector<std::string> bad;
  for (const auto& t : res.tables) {
    if (t.rows().empty()) {
      bad.push_back(printf_str("%s: table has no rows", t.title().c_str()));
      continue;
    }
    bool short_row = false;
    for (const auto& row : t.rows())
      if (row.size() < 5) short_row = true;
    if (short_row) {
      bad.push_back(printf_str("%s: row with fewer than 5 columns",
                               t.title().c_str()));
      continue;
    }
    // Rows are emitted in (fabric, bandwidth) grid order, so each fabric's
    // rows share one bandwidth sequence; pair fat-tree and MixNet rows
    // positionally within their fabric blocks rather than re-matching by
    // floating-point equality of the Gbps cell (the exact pattern the exp
    // layer's Sweep::flat indexing exists to avoid).
    std::vector<std::pair<double, double>> fat_tree_ppd, mixnet_ppd;
    for (const auto& row : t.rows()) {
      const std::string fabric = row[0].text();
      const double gbps = row[1].value();
      const double ppd = row[4].value();
      if (!(row[2].value() > 0.0) || !(row[3].value() > 0.0) || !(ppd > 0.0))
        bad.push_back(printf_str("%s: non-positive cell for %s @%g G",
                                 t.title().c_str(), fabric.c_str(), gbps));
      if (fabric == topo::to_string(topo::FabricKind::kFatTree))
        fat_tree_ppd.emplace_back(gbps, ppd);
      if (fabric == topo::to_string(topo::FabricKind::kMixNet))
        mixnet_ppd.emplace_back(gbps, ppd);
    }
    if (mixnet_ppd.empty() || mixnet_ppd.size() != fat_tree_ppd.size()) {
      bad.push_back(printf_str("%s: %zu MixNet vs %zu fat-tree rows",
                               t.title().c_str(), mixnet_ppd.size(),
                               fat_tree_ppd.size()));
      continue;
    }
    for (std::size_t i = 0; i < mixnet_ppd.size(); ++i) {
      const auto [gbps, ppd] = mixnet_ppd[i];
      if (!(ppd > fat_tree_ppd[i].second))
        bad.push_back(printf_str(
            "%s @%g G: MixNet perf/$ (%.2f) not above fat-tree (%.2f)",
            t.title().c_str(), gbps, ppd, fat_tree_ppd[i].second));
    }
  }
  if (res.tables.empty()) bad.emplace_back("fig13: no tables produced");
  return bad;
}

void register_training_scenarios(ScenarioRegistry& r) {
  r.add({"fig03", "Figure 3 + Figure 17",
         "MoE-block forward timeline vs micro-batch size", run_fig03, {}, "training"});
  r.add({"fig10", "Figure 10",
         "Testbed iteration time: EPS baseline vs MixNet prototype", run_fig10, {}, "training"});
  r.add({"fig12", "Figure 12",
         "Normalized iteration time vs bandwidth, five fabrics", run_fig12,
         check_fig12, "training"});
  r.add({"fig13", "Figure 13",
         "Performance-cost Pareto analysis per fabric and bandwidth", run_fig13,
         check_fig13, "training"});
  r.add({"fig14", "Figure 14",
         "Failure resiliency: NIC/GPU/server failures on MixNet", run_fig14, {}, "training"});
  r.add({"fig16", "Figure 16",
         "NVL72 vs MixNet with co-packaged optical I/O (DeepSeek-V3)",
         run_fig16, {}, "training"});
  r.add({"fig25", "Figure 25", "Speedups at larger batch sizes (32/64)",
         run_fig25, {}, "training"});
  r.add({"fig26", "Figure 26",
         "Scalability: tokens/s and perf-per-dollar vs cluster size", run_fig26, {}, "training"});
  r.add({"fig26-xl", "Figure 26 (XL)",
         "100k-GPU scalability on the analytic electrical core",
         run_fig26_xl, check_fig26_xl, "training"});
  r.add({"fig27", "Figure 27",
         "Optical degree alpha sweep (cost-equivalent)", run_fig27, {}, "training"});
  r.add({"fig28", "Figure 28",
         "Sensitivity to OCS reconfiguration latency", run_fig28, {}, "training"});
}

}  // namespace mixnet::exp
