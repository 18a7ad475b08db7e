// Gate simulator: the production-trace substitute (DESIGN.md §2).
//
// Generates per-iteration, per-layer token-to-expert routing with the three
// statistical properties the paper measures on a production cluster (§3):
//
//   1. temporal dynamics  -- expert popularity follows a logit random walk,
//      with a load-balancing-loss pull toward uniform that strengthens as
//      training progresses (Fig. 4a: variability decreases over time);
//   2. spatial non-uniformity -- popularity is a softmax of random logits
//      and each token home rank has a personalized preference mix, so
//      all-to-all matrices have hot rows *and* columns (Fig. 4b);
//   3. inter-layer structure -- expert choice at layer l+1 is Markov in the
//      choice at layer l (column-stochastic transition matrix per layer),
//      which is exactly the structure MixNet-Copilot (§B.1) exploits.
//
// Token counts are realized with a Gaussian approximation of the multinomial
// (exact for the >10^3 tokens per rank used everywhere), clipped and
// renormalized so per-rank totals are preserved.
//
// The statistics that no experiment varies -- the transition concentration,
// the popularity walk and the load-balancing schedule -- are GateSimulator
// constants (kTransitionAlpha, kDriftSigma, kPopularityRetention, kLbFinal,
// kLbTimescale); GateConfig holds the dimensions, the preference knobs that
// scenarios set, and the seed.
//
// A reader that consumes only layers [0, read_layers) (one pipeline stage)
// says so at construction: the constructor still computes every layer; the
// first advance frees the rest, and each advance computes only the read ones.
// The random draws of unread layers are consumed, not computed
// (Rng::skip_gamma, Rng::fill_normal_head): the stream advances through
// them in the same order, so it -- and every read layer -- is bit-identical
// to a simulator that computes them all.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace mixnet::moe {

struct GateConfig {
  int n_experts = 8;
  int n_layers = 4;
  int ep_ranks = 8;            ///< token home ranks (== EP degree)
  double tokens_per_rank = 4096.0;  ///< token*top_k slots dispatched per rank
  double personalization = 0.75;    ///< per-rank preference strength [0,1]
  double pref_drift_sigma = 0.44;   ///< per-iteration preference logit walk
  double pref_retention = 0.98;     ///< OU mean reversion of preferences
  std::uint64_t seed = 42;
};

/// How to advance the gate past warmup iterations
/// (sim::TrainingConfig::warmup_policy).
enum class WarmupPolicy {
  /// skip(n): iterate the stochastic state step by step (exact historical
  /// trajectory; O(n) draws).
  kExactSteps,
  /// advance_steps(n): sample the n-step state directly from the exact
  /// discrete-time OU transition distribution (one draw per dimension;
  /// same law, different trajectory).
  kClosedForm,
};

/// The EP rank that owns each expert under contiguous placement: with
/// epr = max(1, n_experts / ep_ranks), rank r owns experts
/// [r*epr, (r+1)*epr) and the last rank also owns any remainder. The one
/// ownership rule every dispatch-matrix reader derives from. Throws
/// std::invalid_argument unless ep_ranks is positive.
std::vector<int> contiguous_expert_ranks(int n_experts, int ep_ranks);

/// EP-rank all-to-all matrix in bytes for the *dispatch* (first) all-to-all
/// of one layer: entry (src_rank, dst_rank) sums the `counts` (rank x
/// expert token slots) of the experts e with expert_to_rank[e] == dst_rank,
/// times `bytes_per_slot` (hidden*dtype bytes, or any per-slot scale). The
/// matrix is square over the counts' home ranks; the combine (second)
/// all-to-all is its transpose (§5.1). Throws std::invalid_argument unless
/// expert_to_rank has one entry per counts column.
Matrix rank_dispatch_matrix(const Matrix& counts,
                            const std::vector<int>& expert_to_rank,
                            double bytes_per_slot);

class GateSimulator {
 public:
  /// Markov column concentration of the transition matrices.
  static constexpr double kTransitionAlpha = 0.08;
  /// Per-iteration popularity logit walk.
  static constexpr double kDriftSigma = 0.06;
  /// Per-iteration retention of the popularity logit walk (OU mean
  /// reversion; see advance_state).
  static constexpr double kPopularityRetention = 0.985;
  /// Asymptotic load-balancing mix [0,1].
  static constexpr double kLbFinal = 0.45;
  /// Iterations to approach kLbFinal.
  static constexpr double kLbTimescale = 2000.0;

  /// `read_layers` is how many layers [0, read_layers) the caller reads
  /// after the first advance (all of them without it). Throws
  /// std::invalid_argument, naming the field, unless n_experts, n_layers and
  /// ep_ranks are positive, every real knob is finite, and 1 <= read_layers
  /// <= n_layers.
  GateSimulator(const GateConfig& cfg, int read_layers);
  explicit GateSimulator(const GateConfig& cfg) : GateSimulator(cfg, cfg.n_layers) {}

  /// Advance one training iteration (re-samples routing).
  void step();

  /// Advance `n` iterations cheaply: the stochastic state (popularity,
  /// preferences, transitions) moves forward but distributions and counts
  /// are only materialized on the last step. Used to fast-forward past a
  /// planning snapshot (one-shot-topology staleness).
  void skip(int n);

  /// Fast-forward `n` iterations in closed form: the popularity and
  /// preference OU walks are sampled directly from the exact n-step
  /// discrete-time OU transition distribution
  ///   z_n ~ N(a^n z_0, sigma^2 (1 - a^{2n}) / (1 - a^2)),
  /// one normal draw per dimension instead of n, and the every-50-iteration
  /// transition drift is applied once per crossed boundary. Lands on the
  /// same iteration count with the same state *law* as skip(n) but a
  /// different sample path; distributions and counts are materialized once
  /// at the end. This is the WarmupPolicy::kClosedForm warmup fast path.
  void advance_steps(int n);

  /// Warmup: advance_steps(n) under kClosedForm, skip(n) under kExactSteps.
  void warm_up(int n, WarmupPolicy policy) {
    policy == WarmupPolicy::kClosedForm ? advance_steps(n) : skip(n);
  }

  int iteration() const { return iter_; }
  const GateConfig& config() const { return cfg_; }

  /// Normalized expert load for a layer (sums to 1). The state holds every
  /// layer right after construction and layers [0, read_layers) once
  /// step/skip/advance_steps has moved it; reading any other layer throws
  /// std::out_of_range (so do dispatch_counts, transition and
  /// preference_logits).
  const std::vector<double>& expert_load(int layer) const;

  /// Realized dispatch counts: rows = home rank, cols = expert (token slots).
  const Matrix& dispatch_counts(int layer) const;

  /// EP-rank all-to-all matrix in bytes for the *dispatch* (first) all-to-all
  /// of a layer: moe::rank_dispatch_matrix over dispatch_counts(layer) under
  /// contiguous_expert_ranks.
  Matrix rank_dispatch_matrix(int layer, double bytes_per_slot) const;

  /// Ground-truth inter-layer transition matrix (column-stochastic),
  /// mapping layer `layer-1` loads to layer `layer` loads. For tests and
  /// Copilot oracle comparisons. Throws std::out_of_range for layer 0 and
  /// for a layer the state does not hold.
  const Matrix& transition(int layer) const;

  /// Current load-balancing mixing coefficient (0 early, -> kLbFinal).
  double lb_mix() const;

  /// Layer-0 popularity logits (the OU-walk state advance_steps fast-
  /// forwards); exposed for the closed-form-vs-stepped distribution tests.
  const std::vector<double>& popularity_logits() const { return logits_; }

  /// Preference logits of one (rank, layer) OU walk (test accessor; throws
  /// std::out_of_range for a layer the state does not hold).
  const std::vector<double>& preference_logits(int rank, int layer) const {
    check_held(layer, 0, "preference_logits");
    return pref_logits_[static_cast<std::size_t>(layer) *
                            static_cast<std::size_t>(cfg_.ep_ranks) +
                        static_cast<std::size_t>(rank)];
  }

 private:
  /// Throws std::out_of_range unless first <= layer < the layers held.
  void check_held(int layer, int first, const char* what) const;
  /// Frees every unread layer's state (at the first advance).
  void drop_unread_layers();
  void advance_state();
  /// Shared OU-walk update of popularity + every preference vector: one bulk
  /// fill_normal over all dimensions, then z = a z + sd eps per walk. Called
  /// with the per-iteration coefficients by advance_state and with the
  /// n-step transition moments by advance_steps.
  void apply_ou_update(double pop_a, double pop_sd, double pref_a,
                       double pref_sd);
  void transition_drift();
  void refresh_distributions();
  void realize_counts();

  GateConfig cfg_;
  Rng rng_;
  int iter_ = 0;
  int read_layers_;  // the per-layer state below holds every layer, then
                     // only these from the first advance on
  std::vector<double> logits_;                 // layer-0 popularity logits
  std::vector<Matrix> transitions_;            // per layer >= 1
  // Per (layer, rank) preference logits (OU process); the normalized
  // preference weights are recomputed from them in refresh_distributions.
  std::vector<std::vector<double>> pref_logits_;
  // Per layer: per home rank expert distribution, loads, realized counts.
  std::vector<Matrix> q_;                  // [layer] (rank x expert)
  std::vector<std::vector<double>> load_;  // [layer][expert]
  std::vector<Matrix> counts_;             // [layer] (rank x expert)
  std::vector<double> normal_scratch_;               // bulk fill_normal buffer
  std::vector<double> gamma_scratch_;                // bulk fill_gamma buffer
  std::vector<double> dist_scratch_;  // refresh_distributions work buffers
};

}  // namespace mixnet::moe
