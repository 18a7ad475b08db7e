// MoE model zoo and parallelization specs (paper Table 1 + §7.1/§D.1/§8).
#pragma once

#include <string>
#include <vector>

namespace mixnet::moe {

struct MoeModelConfig {
  std::string name;
  int n_blocks = 0;       ///< number of MoE blocks (transformer layers)
  int n_experts = 0;      ///< experts per MoE block
  int top_k = 2;          ///< experts activated per token
  int hidden_dim = 0;     ///< model dimension
  int ffn_dim = 0;        ///< per-expert FFN intermediate dimension
  int n_heads = 0;
  double total_params_b = 0.0;  ///< total parameters, billions

  /// Parameter bytes (bf16) of one expert FFN (3 projection matrices).
  double expert_param_bytes() const {
    return 3.0 * static_cast<double>(hidden_dim) * ffn_dim * 2.0;
  }
  /// Parameter bytes of one attention block (QKVO projections).
  double attention_param_bytes() const {
    return 4.0 * static_cast<double>(hidden_dim) * hidden_dim * 2.0;
  }
};

struct ParallelismSpec {
  int ep = 1;  ///< expert parallel degree
  int tp = 1;  ///< tensor parallel degree
  int pp = 1;  ///< pipeline parallel degree
  int dp = 1;  ///< data parallel degree (replicas of the whole model)
  int seq_len = 4096;
  int micro_batch = 8;      ///< sequences per micro-batch
  int n_microbatches = 8;   ///< micro-batches per iteration (pipeline depth)

  int gpus_per_replica() const { return ep * tp * pp; }
  int total_gpus() const { return gpus_per_replica() * dp; }
  /// Tokens entering each MoE block per micro-batch (per EP group).
  double tokens_per_microbatch() const {
    return static_cast<double>(micro_batch) * seq_len;
  }
};

/// Model zoo. Configs follow the public model cards; parallelism defaults
/// follow Table 1 (Mixtral 8x7B, LLaMA-MoE, Qwen-MoE), §D.1 (Mixtral 8x22B,
/// DeepSeek-R1) and §8 (DeepSeek-V3).
MoeModelConfig mixtral_8x7b();
MoeModelConfig mixtral_8x22b();
MoeModelConfig llama_moe();
MoeModelConfig qwen_moe();
MoeModelConfig deepseek_r1();
MoeModelConfig deepseek_v3();

ParallelismSpec default_parallelism(const MoeModelConfig& model);

/// All models used in the §7 simulations, in paper order.
std::vector<MoeModelConfig> simulation_models();

}  // namespace mixnet::moe
