#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace mixnet {

void normalize_span(double* v, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += v[i];
  if (s <= 0.0) {
    const double u = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = u;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) v[i] /= s;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double coeff_of_variation(const std::vector<double>& xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

}  // namespace mixnet
