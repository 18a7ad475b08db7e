#include "moe/traffic.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mixnet::moe {

namespace {
constexpr double kBf16 = 2.0;
}

double slot_bytes(const MoeModelConfig& model) { return model.hidden_dim * kBf16; }

GateConfig gate_config(const MoeModelConfig& model, const ParallelismSpec& par,
                       GateConfig base) {
  base.n_experts = model.n_experts;
  base.n_layers = model.n_blocks;
  base.ep_ranks = par.ep;
  base.tokens_per_rank = par.tokens_per_microbatch() * model.top_k / par.ep;
  return base;
}

double tp_allreduce_bytes(const MoeModelConfig& model, const ParallelismSpec& par) {
  // Payload = activation shard per EP rank: (tokens per micro-batch / ep) * h.
  const double tokens = par.tokens_per_microbatch() / par.ep;
  return tokens * model.hidden_dim * kBf16;
}

double ep_all_to_all_bytes(const MoeModelConfig& model, const ParallelismSpec& par) {
  return par.tokens_per_microbatch() * model.top_k * model.hidden_dim * kBf16;
}

double pp_activation_bytes(const MoeModelConfig& model, const ParallelismSpec& par) {
  return par.tokens_per_microbatch() * model.hidden_dim * kBf16;
}

double dp_gradient_bytes_per_gpu(const MoeModelConfig& model,
                                 const ParallelismSpec& par) {
  // Parameters per GPU: experts split across EP and TP; attention across TP;
  // layers split across PP.
  const double layers_per_stage =
      static_cast<double>(model.n_blocks) / par.pp;
  const double expert_bytes =
      model.expert_param_bytes() * model.n_experts / (par.ep * par.tp);
  const double attn_bytes = model.attention_param_bytes() / par.tp;
  return layers_per_stage * (expert_bytes + attn_bytes);
}

TrafficVolumes iteration_traffic(const MoeModelConfig& model,
                                 const ParallelismSpec& par) {
  TrafficVolumes v;
  const double micro = par.n_microbatches;
  const double replicas = par.dp;

  // TP: 4 ring all-reduces per layer per micro-batch across each TP group.
  if (par.tp > 1) {
    const double ring = 2.0 * (par.tp - 1) / par.tp;
    const double per_group = 4.0 * ring * tp_allreduce_bytes(model, par) * par.tp;
    v.tp = per_group * model.n_blocks * micro * par.ep * replicas;
  }

  // EP: 4 all-to-alls per block per micro-batch; count cross-rank bytes.
  {
    const double cross = par.ep > 1 ? (par.ep - 1.0) / par.ep : 0.0;
    v.ep = 4.0 * ep_all_to_all_bytes(model, par) * cross * model.n_blocks * micro *
           replicas;
  }

  // PP: activations fwd + gradients bwd per boundary per micro-batch.
  if (par.pp > 1) {
    v.pp = 2.0 * pp_activation_bytes(model, par) * (par.pp - 1) * micro * replicas;
  }

  // DP: ring all-reduce of gradients, all GPUs participate once.
  if (par.dp > 1) {
    const double ring = 2.0 * (par.dp - 1) / par.dp;
    v.dp = ring * dp_gradient_bytes_per_gpu(model, par) *
           par.gpus_per_replica() * par.dp;
  }
  return v;
}

Matrix aggregate_to_servers(const Matrix& rank_matrix,
                            const std::vector<int>& rank_to_local_server,
                            int n_local_servers) {
  if (rank_matrix.rows() != rank_matrix.cols() ||
      rank_matrix.rows() != rank_to_local_server.size())
    throw std::invalid_argument(
        "aggregate_to_servers: " + std::to_string(rank_matrix.rows()) + "x" +
        std::to_string(rank_matrix.cols()) + " rank matrix for " +
        std::to_string(rank_to_local_server.size()) + " mapped ranks");
  for (const int s : rank_to_local_server)
    if (s < 0 || s >= n_local_servers)
      throw std::invalid_argument("aggregate_to_servers: local server " +
                                  std::to_string(s) + " outside [0, " +
                                  std::to_string(n_local_servers) + ")");
  Matrix out(static_cast<std::size_t>(n_local_servers),
             static_cast<std::size_t>(n_local_servers), 0.0);
  for (std::size_t i = 0; i < rank_matrix.rows(); ++i) {
    for (std::size_t j = 0; j < rank_matrix.cols(); ++j) {
      const auto si = static_cast<std::size_t>(rank_to_local_server[i]);
      const auto sj = static_cast<std::size_t>(rank_to_local_server[j]);
      out(si, sj) += rank_matrix(i, j);
    }
  }
  return out;
}

double matrix_sparsity(const Matrix& m, double threshold_frac) {
  const double mx = m.max();
  if (mx <= 0.0) return 1.0;
  std::size_t off_diag = 0, sparse = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (i == j) continue;
      ++off_diag;
      if (m(i, j) < threshold_frac * mx) ++sparse;
    }
  }
  return off_diag == 0 ? 1.0
                       : static_cast<double>(sparse) / static_cast<double>(off_diag);
}

double block_locality(const Matrix& gpu_matrix, int block) {
  if (block <= 0)
    throw std::invalid_argument("block_locality: block must be >= 1, got " +
                                std::to_string(block));
  double total = 0.0, local = 0.0;
  for (std::size_t i = 0; i < gpu_matrix.rows(); ++i) {
    for (std::size_t j = 0; j < gpu_matrix.cols(); ++j) {
      const double v = gpu_matrix(i, j);
      total += v;
      if (static_cast<int>(i) / block == static_cast<int>(j) / block) local += v;
    }
  }
  return total > 0.0 ? local / total : 1.0;
}

Matrix gpu_traffic_matrix(const MoeModelConfig& model, const ParallelismSpec& par,
                          const Placement& placement,
                          const std::vector<Matrix>& ep_rank_matrices) {
  const int n = par.total_gpus();
  Matrix out(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  const double micro = par.n_microbatches;

  auto add = [&](int a, int b, double bytes) {
    if (a == b) return;
    out(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) += bytes;
  };

  for (int dp = 0; dp < par.dp; ++dp) {
    for (int pp = 0; pp < par.pp; ++pp) {
      // EP all-to-all: spread each rank pair's bytes over the first TP rank
      // of each EP rank (the dispatch endpoint), 4 phases per micro-batch.
      const Matrix& rm = ep_rank_matrices[static_cast<std::size_t>(
          (dp * par.pp + pp) % ep_rank_matrices.size())];
      for (int i = 0; i < par.ep; ++i) {
        for (int j = 0; j < par.ep; ++j) {
          if (i == j) continue;
          const double bytes =
              rm(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
          const int a = placement.gpu_of({dp, pp, i, 0});
          const int b = placement.gpu_of({dp, pp, j, 0});
          add(a, b, 2.0 * bytes * micro);               // dispatch fwd+bwd
          add(b, a, 2.0 * bytes * micro);               // combine fwd+bwd
        }
      }
      // TP ring all-reduce inside each (ep) group.
      if (par.tp > 1) {
        const double ring_bytes = 4.0 * 2.0 * (par.tp - 1) / par.tp *
                                  tp_allreduce_bytes(model, par) * micro *
                                  model.n_blocks / par.pp;
        for (int ep = 0; ep < par.ep; ++ep) {
          for (int t = 0; t < par.tp; ++t) {
            const int a = placement.gpu_of({dp, pp, ep, t});
            const int b = placement.gpu_of({dp, pp, ep, (t + 1) % par.tp});
            add(a, b, ring_bytes / 2.0);
            add(b, a, ring_bytes / 2.0);
          }
        }
      }
      // PP point-to-point to the next stage (same dp, ep, tp coordinates).
      if (pp + 1 < par.pp) {
        const double act = pp_activation_bytes(model, par) * micro * 2.0 / par.ep;
        for (int ep = 0; ep < par.ep; ++ep) {
          for (int t = 0; t < par.tp; ++t) {
            const int a = placement.gpu_of({dp, pp, ep, t});
            const int b = placement.gpu_of({dp, pp + 1, ep, t});
            add(a, b, act / par.tp);
          }
        }
      }
    }
  }
  // DP gradient ring across replicas (same pp, ep, tp).
  if (par.dp > 1) {
    const double ring_bytes =
        2.0 * (par.dp - 1) / par.dp *
        dp_gradient_bytes_per_gpu(model, par);
    for (int pp = 0; pp < par.pp; ++pp) {
      for (int ep = 0; ep < par.ep; ++ep) {
        for (int t = 0; t < par.tp; ++t) {
          for (int dp = 0; dp < par.dp; ++dp) {
            const int a = placement.gpu_of({dp, pp, ep, t});
            const int b = placement.gpu_of({(dp + 1) % par.dp, pp, ep, t});
            add(a, b, ring_bytes / 2.0);
            add(b, a, ring_bytes / 2.0);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace mixnet::moe
