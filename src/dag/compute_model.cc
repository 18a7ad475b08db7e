#include "dag/compute_model.h"

#include <algorithm>

namespace mixnet::dag {

namespace {

// Effective throughputs in TFLOP/s, calibrated to Fig. 3 (file header of
// compute_model.h).
constexpr double kAttentionTflops = 6.0;
constexpr double kExpertTflops = 6.0;
constexpr double kGateTflops = 2.0;
constexpr double kElementwiseTflops = 0.5;  ///< bandwidth-bound add+norm

TimeNs flops_to_time(double flops, double tflops) {
  if (flops <= 0.0) return 0;
  return std::max<TimeNs>(sec_to_ns(flops / (tflops * 1e12)), 1000);
}
}  // namespace

double attention_flops_per_gpu(const moe::MoeModelConfig& m,
                               const moe::ParallelismSpec& p) {
  // Tokens processed per EP rank (attention is data-parallel across EP).
  const double tokens = p.tokens_per_microbatch() / p.ep;
  const double h = m.hidden_dim;
  // QKVO projections (8 h^2 per token) + attention scores (4 s h per token).
  const double per_token = 8.0 * h * h + 4.0 * static_cast<double>(p.seq_len) * h;
  return tokens * per_token / p.tp;
}

double expert_flops_per_gpu(const moe::MoeModelConfig& m,
                            const moe::ParallelismSpec& p) {
  // Token*top_k slots land on this rank's experts; 3 projection GEMMs each.
  const double slots = p.tokens_per_microbatch() * m.top_k / p.ep;
  const double per_slot = 6.0 * static_cast<double>(m.hidden_dim) * m.ffn_dim;
  return slots * per_slot / p.tp;
}

double gate_flops_per_gpu(const moe::MoeModelConfig& m, const moe::ParallelismSpec& p) {
  const double tokens = p.tokens_per_microbatch() / p.ep;
  return tokens * 2.0 * static_cast<double>(m.hidden_dim) * m.n_experts;
}

LayerTimes forward_layer_times(const moe::MoeModelConfig& model,
                               const moe::ParallelismSpec& par,
                               const ComputeModelConfig&) {
  LayerTimes t;
  t.attention = flops_to_time(attention_flops_per_gpu(model, par), kAttentionTflops);
  t.gate = flops_to_time(gate_flops_per_gpu(model, par), kGateTflops);
  t.expert = flops_to_time(expert_flops_per_gpu(model, par), kExpertTflops);
  const double tokens = par.tokens_per_microbatch() / par.ep;
  const double elem = tokens * 12.0 * model.hidden_dim / par.tp;
  t.add_norm = flops_to_time(elem, kElementwiseTflops);
  return t;
}

}  // namespace mixnet::dag
