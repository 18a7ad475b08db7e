// Measurement-study walkthrough (§3): generate a production-like MoE
// routing trace with the gate simulator and reproduce the three properties
// MixNet's design rests on:
//
//   1. temporal dynamics  -- per-expert all-to-all volume varies across
//      iterations and calms down as the load-balancing loss converges;
//   2. spatial non-uniformity -- the rank-to-rank matrix keeps hot pairs;
//   3. locality -- cluster-wide, traffic stays inside EP groups.
#include <algorithm>
#include <cstdio>

#include "common/stats.h"
#include "moe/gate.h"
#include "moe/models.h"
#include "moe/placement.h"
#include "moe/traffic.h"

using namespace mixnet;

int main() {
  const auto model = moe::mixtral_8x7b();
  auto par = moe::default_parallelism(model);
  par.dp = 1;

  moe::GateSimulator gate(moe::gate_config(model, par));

  std::printf("=== 1. Temporal dynamics (layer 1 expert loads) ===\n");
  std::vector<double> cov_series;
  for (int iter = 0; iter < 600; ++iter) {
    gate.step();
    const auto& load = gate.expert_load(1);
    cov_series.push_back(coeff_of_variation(load));
    if (iter % 100 == 0) {
      std::printf("iter %4d  loads:", iter);
      for (double v : load) std::printf(" %.3f", v);
      std::printf("  (CoV %.3f)\n", cov_series.back());
    }
  }
  std::printf("CoV first 100 iters: %.3f -> last 100 iters: %.3f\n\n",
              mean({cov_series.begin(), cov_series.begin() + 100}),
              mean({cov_series.end() - 100, cov_series.end()}));

  std::printf("=== 2. Spatial non-uniformity (rank-to-rank matrix, MB) ===\n");
  const Matrix t = gate.rank_dispatch_matrix(1, model.hidden_dim * 2.0);
  for (std::size_t i = 0; i < t.rows(); ++i) {
    for (std::size_t j = 0; j < t.cols(); ++j) std::printf("%6.1f", t(i, j) / 1e6);
    std::printf("\n");
  }
  std::printf("off-diagonal sparsity (<10%% of max): %.2f\n\n",
              moe::matrix_sparsity(t, 0.1));

  std::printf("=== 3. Locality (128-GPU matrix, %% volume within 32-GPU blocks) ===\n");
  std::vector<Matrix> mats;
  for (int l = 0; l < model.n_blocks; ++l)
    mats.push_back(gate.rank_dispatch_matrix(l, model.hidden_dim * 2.0));
  const moe::Placement placement(par, 8);
  const Matrix gpu = moe::gpu_traffic_matrix(model, par, placement, mats);
  std::printf("locality score: %.1f%%\n",
              100.0 * moe::block_locality(gpu, par.ep * par.tp));
  std::printf("\nThese are the §3 observations that motivate regionally\n"
              "reconfigurable OCS: traffic is dynamic and non-uniform, but its\n"
              "dynamics never leave the EP group.\n");
  return 0;
}
