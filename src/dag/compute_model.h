// Analytic compute-time model (the FlexFlow-profile substitute, DESIGN.md §2).
//
// Durations come from FLOP counts divided by *effective* throughputs that are
// calibrated to the paper's production profile (Fig. 3): with the fixed
// constants in compute_model.cc, Mixtral 8x7B at micro-batch 8 (EP8/TP4)
// yields ~120 ms of expert computation and ~35 ms of attention per MoE block
// -- matching the measured timeline that makes 25 ms OCS reconfiguration
// hideable (§4.1). No experiment varies the throughputs, so they are
// constants, not config.
//
// Effective throughput is deliberately far below A100 peak (312 TFLOP/s):
// production MoE layers run at low MFU due to grouped GEMMs, token
// permutation and kernel launch overheads; the calibration constant folds
// all of that in.
#pragma once

#include "common/units.h"
#include "moe/models.h"

namespace mixnet::dag {

/// No workload sets backward_factor either; it stays a field only because
/// perfbench/harness reads `cfg.compute.backward_factor`, until the
/// benchmark change that retires that harness (ROADMAP).
struct ComputeModelConfig {
  double backward_factor = 2.0;     ///< bwd compute ~= 2x fwd
};

/// Forward-pass compute durations of one MoE block on one GPU.
struct LayerTimes {
  TimeNs attention = 0;
  TimeNs gate = 0;
  TimeNs expert = 0;
  TimeNs add_norm = 0;
};

/// The third parameter is unused: the throughputs are fixed constants. It
/// stays only because perfbench/harness passes `cfg.compute`, until the
/// benchmark change that retires that harness (ROADMAP).
LayerTimes forward_layer_times(const moe::MoeModelConfig& model,
                               const moe::ParallelismSpec& par,
                               const ComputeModelConfig& = {});

/// FLOP counts (per GPU, per micro-batch, one MoE block) -- exposed so tests
/// can check scaling properties.
double attention_flops_per_gpu(const moe::MoeModelConfig& m,
                               const moe::ParallelismSpec& p);
double expert_flops_per_gpu(const moe::MoeModelConfig& m,
                            const moe::ParallelismSpec& p);
double gate_flops_per_gpu(const moe::MoeModelConfig& m, const moe::ParallelismSpec& p);

}  // namespace mixnet::dag
