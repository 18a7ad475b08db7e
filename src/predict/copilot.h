// MixNet-Copilot (§B.1): traffic demand prediction for the forward pass's
// first all-to-all.
//
// For each layer boundary, Copilot estimates the conditional probability
// matrix P (column-stochastic, P[j][i] = Pr[token gated to expert j at layer
// l | gated to expert i at layer l-1]) by minimizing the windowed weighted
// squared error of Eq. 1:
//
//     min_P  sum_k w_k * || Y_k - P X_k ||^2      s.t. P >= 0, 1^T P = 1^T
//
// The paper solves this with scipy's SLSQP; we use projected gradient
// descent with per-column simplex projection (Duchi et al.), which solves
// the identical constrained least-squares problem (DESIGN.md §2).
//
// Prediction: given the previous layer's realized load X, the next layer's
// load is P X. Accuracy is reported as top-K overlap with the realized load
// (Fig. 19), against "random" and "unchanged" baselines.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace mixnet::predict {

/// The solver's window, decay and projected-gradient step count are fixed
/// constants in copilot.cc.
struct CopilotConfig {
  int n_experts = 8;
  int resolve_every = 4;    ///< recompute P every this many observations
};

/// Project v onto the probability simplex {x >= 0, sum x = 1}.
std::vector<double> project_to_simplex(std::vector<double> v);

class Copilot {
 public:
  explicit Copilot(const CopilotConfig& cfg);

  /// Record one observation: normalized expert loads of two adjacent layers
  /// in the same iteration (X = previous layer, Y = current layer). Throws
  /// std::invalid_argument unless both have n_experts entries.
  void observe(const std::vector<double>& x, const std::vector<double>& y);

  /// Predicted load distribution of the next layer given the previous
  /// layer's realized load.
  std::vector<double> predict(const std::vector<double>& x) const;

  /// Current estimate of the transition matrix.
  const Matrix& transition() const { return p_; }

  std::size_t observations() const { return seen_; }
  /// Least-squares solves run so far (one per resolve_every observations):
  /// an exact work counter.
  std::size_t solves() const { return solves_; }

 private:
  void solve();

  CopilotConfig cfg_;
  Matrix p_;
  std::deque<std::pair<std::vector<double>, std::vector<double>>> window_;
  std::size_t seen_ = 0;
  std::size_t solves_ = 0;
};

/// Top-K accuracy: |topK(predicted) ∩ topK(actual)| / K. Throws
/// std::invalid_argument when the two vectors differ in length.
double top_k_accuracy(const std::vector<double>& predicted,
                      const std::vector<double>& actual, int k);

/// Random baseline for Fig. 19 (the "unchanged" baseline is the previous
/// layer's loads as they are).
std::vector<double> random_prediction(std::size_t n, Rng& rng);

}  // namespace mixnet::predict
