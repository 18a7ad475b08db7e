#include "serve/workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace mixnet::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDiurnalPeriodS = 8.0;  ///< kDiurnal: one rate cycle
constexpr double kBurstStartS = 1.0;     ///< kBurst: storm window start
constexpr double kBurstLenS = 2.0;       ///< kBurst: storm window length
constexpr int kMaxPromptTokens = 8192;
constexpr int kMaxOutputTokens = 1024;

int lognormal_tokens(Rng& rng, double mu, double sigma, int cap) {
  const double v = rng.lognormal(mu, sigma);
  const int t = static_cast<int>(std::lround(v));
  return std::min(std::max(t, 1), cap);
}

}  // namespace

double arrival_rate_at(const ServeConfig& cfg, double t_sec) {
  const double base = cfg.arrival_rate_hz;
  const double peak = base * std::max(cfg.burst_factor, 1.0);
  switch (cfg.shape) {
    case ArrivalShape::kSteady:
      return base;
    case ArrivalShape::kDiurnal: {
      // Sinusoid between base (trough) and peak, starting at the trough so
      // short traces still see both regimes within one period.
      const double phase =
          0.5 * (1.0 - std::cos(2.0 * kPi * t_sec / kDiurnalPeriodS));
      return base + (peak - base) * phase;
    }
    case ArrivalShape::kBurst:
      return (t_sec >= kBurstStartS && t_sec < kBurstStartS + kBurstLenS)
                 ? peak
                 : base;
  }
  return base;
}

std::vector<Request> generate_workload(const ServeConfig& cfg,
                                       std::uint64_t seed) {
  std::vector<Request> out;
  if (cfg.n_requests <= 0 || cfg.arrival_rate_hz <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(cfg.n_requests));
  Rng rng(seed);
  // Thinning (Lewis & Shedler): candidate arrivals at the peak rate,
  // accepted with probability rate(t)/peak. For kSteady every candidate is
  // accepted, so the steady trace is the plain exponential-gap process.
  const double peak = cfg.arrival_rate_hz * std::max(cfg.burst_factor, 1.0);
  double t_sec = 0.0;
  while (out.size() < static_cast<std::size_t>(cfg.n_requests)) {
    t_sec += rng.exponential(peak);
    if (rng.uniform() * peak > arrival_rate_at(cfg, t_sec)) continue;
    Request r;
    r.arrival_ns = static_cast<TimeNs>(sec_to_ns(t_sec));
    r.prompt_tokens =
        lognormal_tokens(rng, cfg.prompt_mu, cfg.prompt_sigma, kMaxPromptTokens);
    r.output_tokens =
        lognormal_tokens(rng, cfg.output_mu, cfg.output_sigma, kMaxOutputTokens);
    out.push_back(r);
  }
  return out;
}

}  // namespace mixnet::serve
