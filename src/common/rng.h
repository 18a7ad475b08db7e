// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repo (gate simulator, failure injection,
// hardware latency models) takes an explicit Rng so that a seed fully
// determines an experiment. The generator is xoshiro256**, seeded via
// SplitMix64, matching the reference implementations by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mixnet {

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Per-call draws (normal(), gamma(), dirichlet(), ...) and the bulk fill_*
  // entry points consume the same uniform stream but in a different order:
  // fill_* runs a block fast path (batched Box-Muller / batched
  // Marsaglia-Tsang over simd_math.h kernels), so n per-call draws and one
  // fill of n differ. Both are deterministic per seed; the per-call
  // sequences are pinned bit-for-bit in common_test.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Fill `out[0..n)` with standard normals. Bulk entry point for the hot
  /// OU walks in the gate simulator: batched Box-Muller (block uniforms ->
  /// one vectorizable transcendental pass, no per-pair branches). Consumes a
  /// pending cached deviate first and leaves one after an odd-length fill,
  /// like normal().
  void fill_normal(double* out, std::size_t n);

  /// Take the draws of fill_normal(·, n) but compute and write only the
  /// first `head` (<= n) of them into `out[0..head)`: those values, the
  /// generator state and the cached deviate end exactly as after
  /// fill_normal(out, n), and blocks past `head` only advance the uniform
  /// stream (head 0 skips n draws; an odd tail still computes its last
  /// block, for the cached deviate). A fill of `head` followed by a skip of
  /// the rest would leave the same state but not always the same values:
  /// the block kernel computes a block's last lanes on a narrower (different
  /// libm) path, so where a block ends moves bits. Throws
  /// std::invalid_argument if head > n.
  void fill_normal_head(double* out, std::size_t head, std::size_t n);

  /// Leave the generator exactly where `n` calls to normal() would -- the
  /// same uniforms and the same cached deviate -- computing no deviate but
  /// the cached one an odd count leaves behind.
  void skip_normal(std::size_t n);

  /// Fill `out[0..n)` with gamma(shape, 1) variates: batched Marsaglia-Tsang
  /// candidate generation (normals + uniforms drawn in blocks, acceptance
  /// evaluated branch-free, rejects re-drawn). Throws std::invalid_argument
  /// unless shape is finite and positive (as gamma() does).
  void fill_gamma(double* out, std::size_t n, double shape);

  /// Leave the generator exactly where fill_gamma(out, n, shape) would: the
  /// same uniforms, candidate rounds and acceptance tests, without the
  /// shape-boost powers or any output. Throws like fill_gamma.
  void skip_gamma(std::size_t n, double shape);

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential with given rate (lambda).
  double exponential(double rate);

  /// Marsaglia-Tsang gamma variate, shape k > 0, scale theta = 1. Throws
  /// std::invalid_argument unless shape is finite and positive.
  double gamma(double shape);

  /// Dirichlet sample of dimension n with common concentration alpha.
  std::vector<double> dirichlet(std::size_t n, double alpha);

  /// Dirichlet with per-component concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alpha);

 private:
  result_type next();
  /// The one draw loop behind fill_normal and fill_normal_head.
  void normal_draws(double* out, std::size_t head, std::size_t n);
  /// The one round loop behind fill_gamma and skip_gamma (out == nullptr
  /// skips: rounds are drawn and tested, nothing is computed or written).
  void gamma_draws(double* out, std::size_t n, double shape);

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mixnet
