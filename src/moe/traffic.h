// Traffic accounting for distributed MoE training.
//
// Implements the per-parallelism wire-volume model used throughout the paper
// (Fig. 2 volume breakdown, DAG communication sizes) and the measurement-
// study statistics of §3 (traffic-matrix sparsity, locality, temporal CoV).
//
// Volume model (bf16, bytes on the scale-out wire, per training iteration):
//   TP  -- 4 all-reduces per layer per micro-batch (2 fwd + 2 bwd, Megatron
//          f/g operators) over each TP group; ring all-reduce moves
//          2 (t-1)/t * payload per participant.
//   EP  -- 4 all-to-alls per MoE block per micro-batch (dispatch + combine,
//          fwd and bwd); each moves tokens*top_k*hidden*2 bytes, of which the
//          (ep-1)/ep fraction crosses ranks.
//   PP  -- activation tensor per stage boundary per micro-batch, fwd + bwd.
//   DP  -- ring all-reduce of gradients once per iteration.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "moe/gate.h"
#include "moe/models.h"
#include "moe/placement.h"

namespace mixnet::moe {

struct TrafficVolumes {
  double tp = 0.0;
  double ep = 0.0;
  double pp = 0.0;
  double dp = 0.0;
  double total() const { return tp + ep + pp + dp; }
};

/// Wire bytes of one dispatched token slot: one bf16 hidden activation.
double slot_bytes(const MoeModelConfig& model);

/// `base` with the gate dimensions of `model` under `par`: its experts, one
/// gate layer per MoE block, one token home rank per EP rank, and the token
/// slots (tokens * top_k) each rank dispatches per micro-batch. The skew
/// knobs and seed of `base` are kept.
GateConfig gate_config(const MoeModelConfig& model, const ParallelismSpec& par,
                       GateConfig base = {});

/// Total wire bytes per training iteration for the whole job.
TrafficVolumes iteration_traffic(const MoeModelConfig& model,
                                 const ParallelismSpec& par);

/// Bytes of one EP all-to-all (dispatch) per EP group per micro-batch
/// (total across ranks, including intra-rank share).
double ep_all_to_all_bytes(const MoeModelConfig& model, const ParallelismSpec& par);

/// Bytes each DP participant contributes to the gradient all-reduce
/// (parameter bytes owned per PP stage per GPU).
double dp_gradient_bytes_per_gpu(const MoeModelConfig& model,
                                 const ParallelismSpec& par);

/// Bytes of the PP activation transfer per micro-batch per stage boundary.
double pp_activation_bytes(const MoeModelConfig& model, const ParallelismSpec& par);

/// Bytes of one TP all-reduce payload per group (before ring factor).
double tp_allreduce_bytes(const MoeModelConfig& model, const ParallelismSpec& par);

/// Aggregate an EP-rank matrix to region-local *server* granularity.
/// `rank_to_local_server[r]` maps EP rank -> local server index; intra-server
/// entries land on the diagonal (carried by NVSwitch, not the scale-out net).
/// Throws std::invalid_argument unless the matrix is square with one row per
/// mapped rank and every mapped server lies in [0, n_local_servers).
Matrix aggregate_to_servers(const Matrix& rank_matrix,
                            const std::vector<int>& rank_to_local_server,
                            int n_local_servers);

/// --- §3 measurement-study statistics -------------------------------------

/// Fraction of off-diagonal entries below `threshold_frac` of the matrix max.
double matrix_sparsity(const Matrix& m, double threshold_frac = 0.1);

/// Locality score of a full GPU x GPU traffic matrix: fraction of volume
/// that stays within blocks of `block` consecutive GPUs (Fig. 5). Throws
/// std::invalid_argument for `block` <= 0.
double block_locality(const Matrix& gpu_matrix, int block);

/// Build the cluster-wide GPU x GPU traffic matrix of one iteration from the
/// parallelism structure and a per-(dp,pp)-group EP rank matrix supplier.
/// Used by the Fig. 5 reproduction.
Matrix gpu_traffic_matrix(const MoeModelConfig& model, const ParallelismSpec& par,
                          const Placement& placement,
                          const std::vector<Matrix>& ep_rank_matrices);

}  // namespace mixnet::moe
