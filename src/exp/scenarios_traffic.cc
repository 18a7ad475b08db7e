// Traffic-characterization and prediction scenarios: figures whose data
// comes from the gate simulator, traffic model, or Copilot directly, with no
// TrainingSimulator sweep (Figs. 2, 4, 5, 19). Ported verbatim from the
// historical bench harnesses so the printed values are unchanged; see
// EXPERIMENTS.md for the per-figure paper-shape comparison.
#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "common/stats.h"
#include "exp/registry.h"
#include "exp/result_table.h"
#include "moe/gate.h"
#include "moe/models.h"
#include "moe/placement.h"
#include "moe/traffic.h"
#include "predict/copilot.h"

namespace mixnet::exp {
namespace {

// ---------------------------------------------------------------------------
// Figure 2: traffic volume distribution of TP / EP / PP / DP for three
// state-of-the-art MoE models under the Table 1 parallelism.

ScenarioResult run_fig02(const RunContext&) {
  ScenarioResult out;
  out.name = "fig02";
  ResultTable table("Figure 2", "Traffic volume share per parallelism (%)",
                    {"Model", "TP", "EP", "PP", "DP", "total GB/iter"});
  for (const auto& m : {moe::mixtral_8x7b(), moe::llama_moe(), moe::qwen_moe()}) {
    const auto p = moe::default_parallelism(m);
    const auto v = moe::iteration_traffic(m, p);
    const double t = v.total();
    table.add_row({m.name, Cell::num(100.0 * v.tp / t, 1),
                   Cell::num(100.0 * v.ep / t, 1), Cell::num(100.0 * v.pp / t, 1),
                   Cell::num(100.0 * v.dp / t, 1), Cell::num(t / 1e9, 1)});
  }
  out.tables.push_back(std::move(table));
  out.note = "Paper: Mixtral TP~60%/EP~30%; LLaMA-MoE & Qwen-MoE EP>80%.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 4: all-to-all traffic dynamics during MoE training -- (a) temporal
// variability decreasing as the load-balancing loss converges, (b) the
// rank-to-rank matrix staying sparse and non-uniform.

ScenarioResult run_fig04(const RunContext&) {
  const auto model = moe::mixtral_8x7b();
  const auto par = moe::default_parallelism(model);
  moe::GateConfig gc = moe::gate_config(model, par);
  gc.n_layers = 4;
  moe::GateSimulator gate(gc);

  ScenarioResult out;
  out.name = "fig04";
  ResultTable ta("Figure 4a", "Per-expert all-to-all volume over training (MB)",
                 {"iter", "E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "CoV"},
                 9);
  // Figure 4b samples the same trajectory after steps 1, 2500, 7500 and
  // 9999; the first row keeps its label 0.
  ResultTable tb("Figure 4b", "Rank-to-rank dispatch matrix sparsity",
                 {"iteration", "sparsity(<10% max)", "max/mean"}, 24);
  const double bytes_per_slot = moe::slot_bytes(model);
  std::vector<double> early_cov, late_cov;
  for (int iter = 0; iter <= 10000; ++iter) {
    gate.step();
    const int stepped = gate.iteration();
    if (stepped == 1 || stepped == 2500 || stepped == 7500 || stepped == 9999) {
      const Matrix t = gate.rank_dispatch_matrix(1, bytes_per_slot);
      double mx = 0.0, sum = 0.0;
      std::size_t cells = 0;
      for (std::size_t i = 0; i < t.rows(); ++i)
        for (std::size_t j = 0; j < t.cols(); ++j) {
          if (i == j) continue;
          mx = std::max(mx, t(i, j));
          sum += t(i, j);
          ++cells;
        }
      tb.add_row({std::to_string(stepped == 1 ? 0 : stepped),
                  Cell::num(moe::matrix_sparsity(t, 0.1), 2),
                  Cell::num(mx / (sum / cells), 2)});
    }
    const auto& load = gate.expert_load(1);
    std::vector<double> mb(load.size());
    for (std::size_t e = 0; e < load.size(); ++e)
      mb[e] = load[e] * gc.tokens_per_rank * par.ep * bytes_per_slot / 1e6;
    const double cov = coeff_of_variation(mb);
    if (iter < 500) early_cov.push_back(cov);
    if (iter > 9500) late_cov.push_back(cov);
    if (iter % 1250 == 0) {
      std::vector<Cell> cells = {std::to_string(iter)};
      for (double v : mb) cells.push_back(Cell::num(v, 1));
      cells.push_back(Cell::num(cov, 3));
      ta.add_row(std::move(cells));
    }
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "mean CoV early (<500 iter): %.3f   late (>9500 iter): %.3f"
                  "   (paper: variability decreases)",
                  mean(early_cov), mean(late_cov));
    ta.add_footer(buf);
  }
  out.tables.push_back(std::move(ta));
  out.tables.push_back(std::move(tb));
  out.note =
      "Paper: matrices stay non-uniform (hot pairs) across iterations\n"
      "even as total volumes converge.";
  return out;
}

// ---------------------------------------------------------------------------
// Figure 5: cluster-wide GPU-to-GPU traffic matrix of Mixtral 8x7B on 128
// GPUs (EP8 x TP4 x PP4), showing strong locality.

ScenarioResult run_fig05(const RunContext&) {
  const auto model = moe::mixtral_8x7b();
  auto par = moe::default_parallelism(model);
  par.dp = 1;
  const moe::Placement placement(par, 8);

  moe::GateSimulator gate(moe::gate_config(model, par));
  gate.step();

  std::vector<Matrix> mats;
  for (int l = 0; l < model.n_blocks; ++l)
    mats.push_back(gate.rank_dispatch_matrix(l, moe::slot_bytes(model)));
  const Matrix gpu = moe::gpu_traffic_matrix(model, par, placement, mats);

  ScenarioResult out;
  out.name = "fig05";
  const int block = par.ep * par.tp;  // 32 GPUs per EP group
  const int blocks = par.total_gpus() / block;
  std::vector<std::string> head = {""};
  for (int b = 0; b < blocks; ++b) head.push_back("blk" + std::to_string(b));
  ResultTable table("Figure 5",
                    "128-GPU traffic matrix: per-32-GPU-block volume (GB)",
                    std::move(head), 12);
  for (int bi = 0; bi < blocks; ++bi) {
    std::vector<Cell> cells = {"blk" + std::to_string(bi)};
    for (int bj = 0; bj < blocks; ++bj) {
      double v = 0.0;
      for (int i = bi * block; i < (bi + 1) * block; ++i)
        for (int j = bj * block; j < (bj + 1) * block; ++j)
          v += gpu(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      cells.push_back(Cell::num(v / 1e9, 1));
    }
    table.add_row(std::move(cells));
  }
  {
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "\nblock locality (fraction of volume within 32-GPU EP "
                  "blocks): %.3f",
                  moe::block_locality(gpu, block));
    table.add_footer(buf);
  }
  // The paper-shape note rides as a footer, not ScenarioResult::note: the
  // historical harness printed it immediately after the locality line with
  // no separating blank line, and the note renderer inserts one. Locked in
  // by the Fig05GoldenOutput test.
  table.add_footer(
      "Paper: strong diagonal locality -- EP all-to-all never crosses\n"
      "MoE-block (PP stage) boundaries.");
  out.tables.push_back(std::move(table));
  return out;
}

// ---------------------------------------------------------------------------
// Figure 19: MixNet-Copilot traffic-demand prediction accuracy (§B.1) --
// top-K accuracy against the random and unchanged baselines.

ScenarioResult run_fig19(const RunContext&) {
  const auto model = moe::mixtral_8x7b();
  const auto par = moe::default_parallelism(model);
  moe::GateConfig gc = moe::gate_config(model, par);
  gc.n_layers = 6;
  gc.seed = 7;
  moe::GateSimulator gate(gc);

  predict::CopilotConfig cc;
  cc.n_experts = model.n_experts;
  cc.resolve_every = 2;
  // One Copilot per layer boundary, as in the paper (per-layer matrices).
  std::vector<predict::Copilot> copilots;
  for (int l = 1; l < gc.n_layers; ++l) copilots.emplace_back(cc);

  Rng rng(99);
  const int warmup = 40, evals = 200;
  std::vector<double> acc_cp(5, 0.0), acc_unchanged(5, 0.0), acc_random(5, 0.0);
  int counted = 0;
  for (int iter = 0; iter < warmup + evals; ++iter) {
    gate.step();
    for (int l = 1; l < gc.n_layers; ++l) {
      const auto& x = gate.expert_load(l - 1);
      const auto& y = gate.expert_load(l);
      auto& cp = copilots[static_cast<std::size_t>(l - 1)];
      if (iter >= warmup) {
        for (int k = 1; k <= 4; ++k) {
          acc_cp[static_cast<std::size_t>(k)] +=
              predict::top_k_accuracy(cp.predict(x), y, k);
          acc_unchanged[static_cast<std::size_t>(k)] +=
              predict::top_k_accuracy(x, y, k);
          acc_random[static_cast<std::size_t>(k)] += predict::top_k_accuracy(
              predict::random_prediction(x.size(), rng), y, k);
        }
        ++counted;
      }
      cp.observe(x, y);
    }
  }
  const double denom = static_cast<double>(counted);

  ScenarioResult out;
  out.name = "fig19";
  ResultTable table("Figure 19", "Copilot top-K prediction accuracy",
                    {"Top K", "Random", "Unchanged", "MixNet-Copilot"}, 18);
  for (int k = 1; k <= 4; ++k) {
    table.add_row({std::to_string(k),
                   Cell::num(acc_random[static_cast<std::size_t>(k)] / denom, 3),
                   Cell::num(acc_unchanged[static_cast<std::size_t>(k)] / denom, 3),
                   Cell::num(acc_cp[static_cast<std::size_t>(k)] / denom, 3)});
  }
  out.tables.push_back(std::move(table));
  out.note =
      "Paper: Copilot significantly more accurate than both baselines,\n"
      "enabling proactive reconfiguration for the FP's first all-to-all.";
  return out;
}

}  // namespace

void register_traffic_scenarios(ScenarioRegistry& r) {
  r.add({"fig02", "Figure 2",
         "Traffic volume distribution of TP/EP/PP/DP per model", run_fig02, {}, "traffic"});
  r.add({"fig04", "Figure 4",
         "All-to-all traffic dynamics: temporal and spatial", run_fig04, {}, "traffic"});
  r.add({"fig05", "Figure 5",
         "Cluster-wide GPU-to-GPU traffic matrix locality", run_fig05, {}, "traffic"});
  r.add({"fig19", "Figure 19", "Copilot top-K prediction accuracy", run_fig19, {}, "traffic"});
}

}  // namespace mixnet::exp
