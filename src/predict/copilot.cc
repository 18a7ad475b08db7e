#include "predict/copilot.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mixnet::predict {

namespace {
constexpr std::size_t kWindow = 16;  ///< k in Eq. 1: recent iterations kept
constexpr double kDecay = 0.85;      ///< w_i = kDecay^(age)
constexpr int kGdSteps = 60;         ///< projected-gradient iterations per solve
}  // namespace

std::vector<double> project_to_simplex(std::vector<double> v) {
  // Duchi et al. 2008: O(n log n) Euclidean projection onto the simplex.
  const std::size_t n = v.size();
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<>());
  double css = 0.0, theta = 0.0;
  std::size_t rho = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += u[i];
    const double t = (cum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) {
      rho = i + 1;
      css = cum;
    }
  }
  if (rho == 0) {  // degenerate input; return uniform
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(n));
    return v;
  }
  theta = (css - 1.0) / static_cast<double>(rho);
  for (auto& x : v) x = std::max(x - theta, 0.0);
  return v;
}

Copilot::Copilot(const CopilotConfig& cfg) : cfg_(cfg) {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  // Start from the identity: "unchanged" is the natural prior (§B.1 default).
  p_ = Matrix::identity(n);
}

void Copilot::observe(const std::vector<double>& x, const std::vector<double>& y) {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  if (x.size() != n || y.size() != n)
    throw std::invalid_argument(
        "predict::Copilot::observe: x has " + std::to_string(x.size()) +
        " and y has " + std::to_string(y.size()) + " entries, expected " +
        std::to_string(n) + " (n_experts)");
  window_.emplace_back(x, y);
  while (window_.size() > kWindow) window_.pop_front();
  ++seen_;
  if (seen_ % static_cast<std::size_t>(std::max(cfg_.resolve_every, 1)) == 0) solve();
}

void Copilot::solve() {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  if (window_.empty()) return;
  ++solves_;

  // Weighted normal-equation pieces: grad = 2 (P * Sxx - Syx).
  Matrix sxx(n, n, 0.0), syx(n, n, 0.0);
  double w = 1.0;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    const auto& [x, y] = *it;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        sxx(a, b) += w * x[a] * x[b];
        syx(a, b) += w * y[a] * x[b];
      }
    }
    w *= kDecay;
  }

  // Step size from the largest input energy: 0.5 / (n * max_a Sxx(a, a)).
  double max_diag = 1e-12;
  for (std::size_t a = 0; a < n; ++a) max_diag = std::max(max_diag, sxx(a, a));
  const double lr = 0.5 / (max_diag * static_cast<double>(n));

  Matrix p = p_;
  std::vector<double> col(n);
  for (int step = 0; step < kGdSteps; ++step) {
    // grad = P Sxx - Syx  (dropping the constant factor 2 into lr)
    Matrix grad(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += p(r, k) * sxx(k, c);
        grad(r, c) = acc - syx(r, c);
      }
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) p(r, c) -= lr * grad(r, c);
    // Project every column onto the simplex (columns sum to 1, entries >= 0).
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = p(r, c);
      col = project_to_simplex(std::move(col));
      for (std::size_t r = 0; r < n; ++r) p(r, c) = col[r];
    }
  }
  p_ = std::move(p);
}

std::vector<double> Copilot::predict(const std::vector<double>& x) const {
  auto y = p_.mul(x);
  double s = std::accumulate(y.begin(), y.end(), 0.0);
  if (s > 0.0)
    for (auto& v : y) v /= s;
  return y;
}

double top_k_accuracy(const std::vector<double>& predicted,
                      const std::vector<double>& actual, int k) {
  if (predicted.size() != actual.size())
    throw std::invalid_argument(
        "predict::top_k_accuracy: predicted has " +
        std::to_string(predicted.size()) + " entries but actual has " +
        std::to_string(actual.size()));
  const auto n = predicted.size();
  const auto kk = static_cast<std::size_t>(std::min<int>(k, static_cast<int>(n)));
  auto top_idx = [&](const std::vector<double>& v) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(kk), idx.end(),
                      [&](std::size_t a, std::size_t b) { return v[a] > v[b]; });
    idx.resize(kk);
    return idx;
  };
  const auto tp = top_idx(predicted);
  const auto ta = top_idx(actual);
  std::size_t hits = 0;
  for (auto i : tp)
    if (std::find(ta.begin(), ta.end(), i) != ta.end()) ++hits;
  return static_cast<double>(hits) / static_cast<double>(kk);
}

std::vector<double> random_prediction(std::size_t n, Rng& rng) {
  return rng.dirichlet(n, 1.0);
}

}  // namespace mixnet::predict
