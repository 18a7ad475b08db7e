// Algorithm 1 (§5.2): greedy OCS circuit allocation.
//
// Given an inter-server all-to-all demand matrix and a per-server optical
// degree alpha, repeatedly find the bottleneck pair (the pair whose transfer
// would take longest under the circuits allocated so far) and give it one
// more circuit, until the bottleneck pair has no free OCS NICs (paper
// semantics) or no demand remains unserved.
//
// TX and RX bandwidth of an OCS link are provisioned together, so the demand
// matrix is folded into upper-triangular form (D[i][j] += D[j][i], i<j)
// before allocation -- exactly Step 1 of the paper's pseudocode.
#pragma once

#include <vector>

#include "common/matrix.h"

namespace mixnet::ocs {

struct ReconfigureOptions {
  /// Algorithm 1's pseudocode breaks as soon as the *current* bottleneck
  /// pair cannot be served (lines 12-13), which strands free OCS ports when
  /// demand is dense (e.g. DeepSeek-class many-expert models). The default
  /// is the work-conserving reading -- skip exhausted pairs and keep
  /// allocating to the next-worst servable pair -- which is what a real
  /// deployment does and what the paper's results imply. Set to false for
  /// the strict-pseudocode ablation (`mixnet-bench --run ablation`
  /// quantifies the gap).
  bool work_conserving = true;
  /// Pairs whose folded demand is below this fraction of the matrix maximum
  /// are left to the EPS fallback instead of claiming a circuit. Without a
  /// floor, the T=infinity seeding of Algorithm 1 spends the whole port
  /// budget covering negligible pairs on dense matrices before any hot pair
  /// gets a second circuit -- the opposite of the paper's intent ("the pair
  /// with the longest transfer should be allocated more circuits"). EP
  /// matrices are sparse in practice (§3), so the floor only trims noise.
  double demand_floor_frac = 0.05;
  /// Bandwidth of one circuit (any unit; only ratios matter).
  double circuit_bps = 1.0;
  /// Hybrid-aware completion times: when > 0, a pair without circuits is
  /// assumed to ride the EPS fallback at this rate instead of being seeded
  /// with T = infinity. The greedy then gives hot pairs *multiple* circuits
  /// whenever that beats covering a cold pair that the EPS serves fine --
  /// which is the paper's stated objective ("the pair with the longest
  /// transmission time should be allocated more circuits"). Set to 0 for
  /// the literal pseudocode (and for TopoOpt, which has no EPS).
  double eps_fallback_bps = 0.0;
  /// Servers excluded from allocation (failed nodes, §5.4). Size 0 or N.
  std::vector<bool> excluded;
};

struct OcsTopology {
  /// Symmetric circuit-count matrix (N x N).
  Matrix counts;
  /// Completion-time bound of the allocation: max over pairs of
  /// demand / (count * per-circuit bandwidth proxy of 1).
  double bottleneck_time = 0.0;
  int total_circuits = 0;
};

/// Fold a (possibly asymmetric) demand matrix into symmetric TX+RX demand.
/// Throws std::invalid_argument for a non-square `demand`.
Matrix symmetrize_demand(const Matrix& demand);

/// Algorithm 1. `demand` is N x N inter-server bytes; `alpha` the per-server
/// optical degree. Returns the circuit allocation as per-pair counts; the
/// fabric installs counts, so the Step-4 NIC mapping is not simulated.
/// Throws std::invalid_argument for a non-square `demand` or an
/// `opts.excluded` of the wrong size.
OcsTopology reconfigure_ocs(const Matrix& demand, int alpha,
                            const ReconfigureOptions& opts = {});

/// Demand-oblivious baseline for ablations: spread circuits uniformly
/// round-robin across all pairs (what a static expander / rotor-style
/// schedule would average to). Row sums never exceed alpha.
Matrix uniform_topology(std::size_t n, int alpha);

}  // namespace mixnet::ocs
