#include "moe/models.h"

namespace mixnet::moe {

MoeModelConfig mixtral_8x7b() {
  return {"Mixtral 8x7B", /*blocks*/ 32, /*experts*/ 8, /*top_k*/ 2,
          /*hidden*/ 4096, /*ffn*/ 14336, /*heads*/ 32, /*params_b*/ 46.7};
}

MoeModelConfig mixtral_8x22b() {
  return {"Mixtral 8x22B", 56, 8, 2, 6144, 16384, 48, 141.0};
}

MoeModelConfig llama_moe() {
  // LLaMA-MoE-v1 (6.7B): FFN of LLaMA-7B split into 16 experts, top-4 gating.
  return {"LLaMA-MoE", 32, 16, 4, 4096, 2752, 32, 6.7};
}

MoeModelConfig qwen_moe() {
  // Qwen1.5-MoE-A2.7B: 24 blocks, 64 (60 routed + shared) experts, top-4.
  return {"Qwen-MoE", 24, 64, 4, 2048, 1408, 16, 14.3};
}

MoeModelConfig deepseek_r1() {
  // DeepSeek-R1 shares the V3 architecture: 256 routed experts, top-8,
  // small experts (ffn 2048).
  return {"DeepSeek-R1", 58, 256, 8, 7168, 2048, 128, 671.0};
}

MoeModelConfig deepseek_v3() {
  return {"DeepSeek-V3", 58, 256, 8, 7168, 2048, 128, 671.0};
}

ParallelismSpec default_parallelism(const MoeModelConfig& model) {
  ParallelismSpec p;
  p.seq_len = 4096;
  p.micro_batch = 8;
  if (model.name == "Mixtral 8x7B") {
    p.ep = 8; p.tp = 4; p.pp = 4;                    // Table 1
  } else if (model.name == "Mixtral 8x22B") {
    p.ep = 8; p.tp = 8; p.pp = 8;                    // §D.1
  } else if (model.name == "LLaMA-MoE") {
    p.ep = 16; p.tp = 1; p.pp = 4;                   // Table 1
  } else if (model.name == "Qwen-MoE") {
    p.ep = 32; p.tp = 1; p.pp = 4;                   // §7.3 (32-way EP)
  } else if (model.name == "DeepSeek-R1") {
    p.ep = 64; p.tp = 1; p.pp = 16;                  // §D.1
  } else if (model.name == "DeepSeek-V3") {
    p.ep = 128; p.tp = 1; p.pp = 16;                 // §8
    p.micro_batch = 240;
  }
  return p;
}

std::vector<MoeModelConfig> simulation_models() {
  return {mixtral_8x22b(), mixtral_8x7b(), qwen_moe(), deepseek_r1()};
}

}  // namespace mixnet::moe
