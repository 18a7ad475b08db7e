#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/simd_math.h"
#include "common/stats.h"

namespace mixnet {
namespace {

// Doubles per block buffer for the vectorized fills. Big enough to amortize
// the kernel-call and mask-compaction overhead, small enough to stay in L1
// (each thread keeps a handful of these buffers, 4 KiB apiece).
constexpr std::size_t kBlock = 512;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// A NaN shape never passes Marsaglia-Tsang's acceptance test, so the
// rejection loop would spin forever; reject it (and shapes <= 0) up front.
void check_gamma_shape(double shape) {
  if (!(shape > 0.0) || !std::isfinite(shape))
    throw std::invalid_argument("Rng: gamma shape must be finite and positive (got " +
                                std::to_string(shape) + ")");
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  has_cached_normal_ = false;
}

Rng::result_type Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::skip_normal(std::size_t n) {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // Each pair of normal() calls takes u1 (redrawn while it is 0, as
  // normal()'s u1 <= 1e-300 test does) and u2; an odd last call computes
  // its pair for the deviate it caches.
  for (; n >= 2; n -= 2) {
    while ((next() >> 11) == 0) {
    }
    next();
  }
  if (n == 1) normal();
}

void Rng::fill_normal(double* out, std::size_t n) { normal_draws(out, n, n); }

void Rng::fill_normal_head(double* out, std::size_t head, std::size_t n) {
  if (head > n)
    throw std::invalid_argument("Rng::fill_normal_head: head " +
                                std::to_string(head) + " exceeds the " +
                                std::to_string(n) + " draws");
  normal_draws(out, head, n);
}

void Rng::normal_draws(double* out, std::size_t head, std::size_t n) {
  std::size_t i = 0;
  if (i < n && has_cached_normal_) {
    has_cached_normal_ = false;
    if (head > 0) out[0] = cached_normal_;
    i = 1;
  }
  // Block Box-Muller: draw all uniforms for a block first (the xoshiro state
  // update is inherently serial but cheap), then run the transcendental pass
  // as one vectorizable kernel. u1 gets its low mantissa bit forced so
  // log(u1) never sees zero without a per-element retry branch; the
  // resulting 2^-54 bias is far below the generator's own 53-bit
  // resolution. A block past `head` with no odd tail only advances the
  // stream: its pairs are never computed.
  static thread_local double u1[kBlock], u2[kBlock], bm_cos[kBlock],
      bm_sin[kBlock];
  while (i < n) {
    const std::size_t pairs = std::min((n - i + 1) / 2, kBlock);
    const std::size_t end = std::min(n, i + 2 * pairs);
    const bool odd_tail = end - i < 2 * pairs;
    if (i >= head && !odd_tail) {
      for (std::size_t k = 0; k < 2 * pairs; ++k) next();
      i = end;
      continue;
    }
    for (std::size_t k = 0; k < pairs; ++k) {
      u1[k] = static_cast<double>(next() >> 11 | 1) * 0x1.0p-53;
      u2[k] = static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    vecmath::box_muller_block(u1, u2, bm_cos, bm_sin, pairs);
    // Emit cos/sin per pair up to `head`; an odd tail emits the cos half
    // and caches the sin half like normal() does.
    const std::size_t keep = std::min(end, std::max(head, i)) - i;
    for (std::size_t k = 0; k < keep / 2; ++k) {
      out[i + 2 * k] = bm_cos[k];
      out[i + 2 * k + 1] = bm_sin[k];
    }
    if (keep % 2 == 1) out[i + keep - 1] = bm_cos[keep / 2];
    if (odd_tail) {
      cached_normal_ = bm_sin[pairs - 1];
      has_cached_normal_ = true;
    }
    i = end;
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  double u;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::gamma(double shape) {
  check_gamma_shape(shape);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u > 1e-300 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

void Rng::fill_gamma(double* out, std::size_t n, double shape) {
  check_gamma_shape(shape);
  gamma_draws(out, n, shape);
}

void Rng::skip_gamma(std::size_t n, double shape) {
  check_gamma_shape(shape);
  gamma_draws(nullptr, n, shape);
}

void Rng::gamma_draws(double* out, std::size_t n, double shape) {
  if (shape < 1.0) {
    // Marsaglia-Tsang shape boost, batched: gamma(a) = gamma(a+1) * U^(1/a).
    // A skip takes the boost uniforms without the powers.
    gamma_draws(out, n, shape + 1.0);
    if (out == nullptr) {
      for (std::size_t i = 0; i < n; ++i) next();
      return;
    }
    static thread_local double u[kBlock], p[kBlock];
    const double inv_shape = 1.0 / shape;
    for (std::size_t i = 0; i < n; i += kBlock) {
      const std::size_t m = std::min(n - i, kBlock);
      for (std::size_t k = 0; k < m; ++k)
        u[k] = static_cast<double>(next() >> 11 | 1) * 0x1.0p-53;
      vecmath::pow_block(u, inv_shape, p, m);
      for (std::size_t k = 0; k < m; ++k) out[i + k] *= p[k];
    }
    return;
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  static thread_local double xs[kBlock], us[kBlock], vals[kBlock];
  static thread_local unsigned char accept[kBlock];
  std::size_t filled = 0;
  while (filled < n) {
    // Candidate batch sized to the remaining demand; the acceptance rate of
    // Marsaglia-Tsang is >95% for shape >= 1, so refill rounds are rare.
    // A batch never accepts more than the m still missing.
    const std::size_t m = std::min(n - filled, kBlock);
    fill_normal(xs, m);
    for (std::size_t k = 0; k < m; ++k)
      us[k] = static_cast<double>(next() >> 11 | 1) * 0x1.0p-53;
    vecmath::gamma_candidate_block(xs, us, d, c, vals, accept, m);
    if (out == nullptr) {
      for (std::size_t k = 0; k < m; ++k) filled += accept[k];
    } else {
      for (std::size_t k = 0; k < m; ++k)
        if (accept[k]) out[filled++] = vals[k];
    }
  }
}

std::vector<double> Rng::dirichlet(std::size_t n, double alpha) {
  return dirichlet(std::vector<double>(n, alpha));
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alpha) {
  std::vector<double> out(alpha.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) out[i] = gamma(alpha[i]);
  normalize_span(out.data(), out.size());
  return out;
}

}  // namespace mixnet
