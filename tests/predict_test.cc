#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "moe/gate.h"
#include "predict/copilot.h"

namespace mixnet::predict {
namespace {

// ------------------------------------------------------------ simplex ----

TEST(Simplex, AlreadyOnSimplexUnchanged) {
  const auto v = project_to_simplex({0.25, 0.25, 0.5});
  EXPECT_NEAR(v[0], 0.25, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(Simplex, ProjectionSumsToOneNonNegative) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(16);
    for (auto& x : v) x = rng.uniform(-2.0, 2.0);
    const auto p = project_to_simplex(v);
    double s = 0.0;
    for (double x : p) {
      EXPECT_GE(x, -1e-12);
      s += x;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Simplex, LargeCoordinateDominates) {
  const auto p = project_to_simplex({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

// ------------------------------------------------------------- copilot ----

CopilotConfig small_cfg(int n = 8) {
  CopilotConfig c;
  c.n_experts = n;
  c.window = 12;
  c.gd_steps = 80;
  c.resolve_every = 1;
  return c;
}

/// Generate observations from a known column-stochastic transition matrix.
struct SyntheticMarkov {
  Matrix p;
  Rng rng{1234};
  explicit SyntheticMarkov(int n, double alpha = 0.2) : p(static_cast<std::size_t>(n),
                                                          static_cast<std::size_t>(n)) {
    for (int c = 0; c < n; ++c) {
      auto col = rng.dirichlet(static_cast<std::size_t>(n), alpha);
      for (int r = 0; r < n; ++r)
        p(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            col[static_cast<std::size_t>(r)];
    }
  }
  std::pair<std::vector<double>, std::vector<double>> sample(double noise = 0.01) {
    const std::size_t n = p.rows();
    auto x = rng.dirichlet(n, 0.5);
    auto y = p.mul(x);
    for (auto& v : y) v = std::max(v + rng.normal(0.0, noise), 0.0);
    double s = std::accumulate(y.begin(), y.end(), 0.0);
    for (auto& v : y) v /= s;
    return {x, y};
  }
};

TEST(Copilot, TransitionStaysColumnStochastic) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 20; ++i) {
    auto [x, y] = m.sample();
    cp.observe(x, y);
  }
  const Matrix& p = cp.transition();
  for (std::size_t c = 0; c < p.cols(); ++c) {
    EXPECT_NEAR(p.col_sum(c), 1.0, 1e-6);
    for (std::size_t r = 0; r < p.rows(); ++r) EXPECT_GE(p(r, c), -1e-9);
  }
}

TEST(Copilot, LearnsSyntheticTransition) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 60; ++i) {
    auto [x, y] = m.sample(0.002);
    cp.observe(x, y);
  }
  // Prediction error on fresh samples must beat the "unchanged" baseline.
  double err_cp = 0.0, err_unchanged = 0.0;
  for (int i = 0; i < 40; ++i) {
    auto [x, y] = m.sample(0.002);
    const auto pred = cp.predict(x);
    for (std::size_t e = 0; e < y.size(); ++e) {
      err_cp += (pred[e] - y[e]) * (pred[e] - y[e]);
      err_unchanged += (x[e] - y[e]) * (x[e] - y[e]);
    }
  }
  EXPECT_LT(err_cp, 0.5 * err_unchanged);
}

TEST(Copilot, PredictionNormalized) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 10; ++i) {
    auto [x, y] = m.sample();
    cp.observe(x, y);
  }
  const auto pred = cp.predict({0.5, 0.5, 0, 0, 0, 0, 0, 0});
  EXPECT_NEAR(std::accumulate(pred.begin(), pred.end(), 0.0), 1.0, 1e-9);
}

TEST(Copilot, IdentityPriorBeforeObservations) {
  Copilot cp(small_cfg(4));
  const std::vector<double> x = {0.7, 0.1, 0.1, 0.1};
  const auto pred = cp.predict(x);  // identity transition == unchanged
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(pred[i], x[i], 1e-12);
}

TEST(Copilot, SolvesCountsEveryResolve) {
  CopilotConfig c = small_cfg(4);
  c.resolve_every = 4;
  Copilot cp(c);
  EXPECT_EQ(cp.solves(), 0u);
  const std::vector<double> x = {0.4, 0.3, 0.2, 0.1};
  for (int i = 0; i < 10; ++i) cp.observe(x, x);
  EXPECT_EQ(cp.observations(), 10u);
  EXPECT_EQ(cp.solves(), 2u);  // after observations 4 and 8
}

/// what() of the std::invalid_argument `f` throws, or "" when it does not.
template <typename F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Mis-sized inputs throw in every build (they used to be release-mode
// asserts): the message names both sizes.
TEST(Copilot, ObserveRejectsWrongLengthX) {
  Copilot cp(small_cfg(4));
  const std::string what = invalid_argument_of(
      [&] { cp.observe({0.5, 0.5, 0.0}, {0.25, 0.25, 0.25, 0.25}); });
  EXPECT_NE(what.find("x has 3"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 4"), std::string::npos) << what;
  EXPECT_EQ(cp.observations(), 0u);
}

TEST(Copilot, ObserveRejectsWrongLengthY) {
  Copilot cp(small_cfg(4));
  const std::string what = invalid_argument_of(
      [&] { cp.observe({0.25, 0.25, 0.25, 0.25}, {0.2, 0.2, 0.2, 0.2, 0.2}); });
  EXPECT_NE(what.find("y has 5"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 4"), std::string::npos) << what;
  EXPECT_EQ(cp.observations(), 0u);
}

// --------------------------------------------------------------- top-k ----

TEST(TopK, RejectsMismatchedSizes) {
  const std::string what = invalid_argument_of(
      [] { top_k_accuracy({0.5, 0.3, 0.2}, {0.5, 0.5}, 1); });
  EXPECT_NE(what.find("predicted has 3"), std::string::npos) << what;
  EXPECT_NE(what.find("actual has 2"), std::string::npos) << what;
}

TEST(TopK, ExactMatch) {
  const std::vector<double> a = {0.5, 0.3, 0.1, 0.1};
  EXPECT_DOUBLE_EQ(top_k_accuracy(a, a, 2), 1.0);
}

TEST(TopK, Disjoint) {
  const std::vector<double> pred = {1.0, 0.9, 0.0, 0.0};
  const std::vector<double> act = {0.0, 0.0, 1.0, 0.9};
  EXPECT_DOUBLE_EQ(top_k_accuracy(pred, act, 2), 0.0);
}

TEST(TopK, PartialOverlap) {
  const std::vector<double> pred = {1.0, 0.9, 0.0, 0.0};
  const std::vector<double> act = {1.0, 0.0, 0.9, 0.0};
  EXPECT_DOUBLE_EQ(top_k_accuracy(pred, act, 2), 0.5);
}

// ------------------------------------------- Fig. 19 ordering property ----

TEST(Fig19, CopilotBeatsUnchangedBeatsRandom) {
  // Evaluate on gate-simulator traces: predict layer l+1 load from layer l.
  moe::GateConfig g;
  g.n_experts = 8;
  g.n_layers = 3;
  g.ep_ranks = 8;
  g.tokens_per_rank = 4096;
  g.seed = 2024;
  moe::GateSimulator gate(g);
  Copilot cp(small_cfg(8));
  Rng rng(77);

  double acc_cp = 0.0, acc_unchanged = 0.0, acc_random = 0.0;
  int evals = 0;
  for (int iter = 0; iter < 120; ++iter) {
    gate.step();
    const auto& x = gate.expert_load(1);
    const auto& y = gate.expert_load(2);
    if (iter >= 20) {  // warm-up
      const int k = 2;
      acc_cp += top_k_accuracy(cp.predict(x), y, k);
      acc_unchanged += top_k_accuracy(x, y, k);
      acc_random += top_k_accuracy(random_prediction(8, rng), y, k);
      ++evals;
    }
    cp.observe(x, y);
  }
  acc_cp /= evals;
  acc_unchanged /= evals;
  acc_random /= evals;
  EXPECT_GT(acc_cp, acc_unchanged);
  EXPECT_GT(acc_cp, acc_random + 0.15);
  EXPECT_GT(acc_cp, 0.5);
}

}  // namespace
}  // namespace mixnet::predict
