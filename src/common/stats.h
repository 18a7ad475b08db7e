// Lightweight descriptive statistics used by benches and the hardware model.
#pragma once

#include <cstddef>
#include <vector>

namespace mixnet {

/// Normalize v[0..n) to sum to 1 in place; degenerate input (sum <= 0)
/// becomes the uniform distribution. Shared by Rng's Dirichlet sampling and
/// the gate simulator's distribution refresh so the fallback policy cannot
/// drift between the bulk and per-call paths.
void normalize_span(double* v, std::size_t n);

double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);

/// p in [0, 1]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);

/// Coefficient of variation (stddev / mean); 0 for empty or zero-mean input.
double coeff_of_variation(const std::vector<double>& xs);

}  // namespace mixnet
