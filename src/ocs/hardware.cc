#include "ocs/hardware.h"

#include <algorithm>
#include <cmath>

namespace mixnet::ocs {

namespace {

// Fig. 21: the reconfiguration delay's mean is linear in the switched pairs.
constexpr double kBaseReconfigMs = 41.1;  ///< 1-pair mean minus slope
constexpr double kPerPairMs = 0.35;       ///< extra mean per switched pair
constexpr double kLognormalSigma = 0.085; ///< dispersion (p99/mean ~ 1.45)
// Fig. 23: NIC activation after the circuits settle.
constexpr double kNicActivationMeanS = 5.67;
constexpr double kNicActivationStddevS = 0.28;
// Fig. 22: the control timeline's fixed segments.
constexpr double kTl1CommandMs = 6.0;      ///< control-plane command latency
constexpr double kTransceiverInitS = 0.9;  ///< optical link re-lock

}  // namespace

TimeNs sample_reconfig_delay(int n_pairs, Rng& rng) {
  const double mean_ms = kBaseReconfigMs + kPerPairMs * n_pairs;
  // Lognormal around the mean: mu chosen so E[X] == mean_ms.
  const double sigma = kLognormalSigma;
  const double mu = std::log(mean_ms) - 0.5 * sigma * sigma;
  // Heavier upper tail (p99 ~ 1.45x mean) via a small Pareto-ish mixture.
  double ms = rng.lognormal(mu, sigma);
  if (rng.uniform() < 0.03) ms *= rng.uniform(1.15, 1.45);
  ms = std::min(ms, 70.0 + 0.2 * n_pairs);  // 99%+ below ~70 ms (Fig. 21)
  return ms_to_ns(ms);
}

TimeNs sample_nic_activation(Rng& rng) {
  double s = rng.normal(kNicActivationMeanS, kNicActivationStddevS);
  s = std::clamp(s, 4.0, 8.0);
  return sec_to_ns(s);
}

ControlTimeline sample_control_timeline(int n_pairs, Rng& rng) {
  ControlTimeline t;
  t.command = ms_to_ns(kTl1CommandMs * rng.uniform(0.8, 1.3));
  t.ocs_reconfig = sample_reconfig_delay(n_pairs, rng);
  t.transceiver_init = sec_to_ns(kTransceiverInitS * rng.uniform(0.8, 1.2));
  const TimeNs nic_total = sample_nic_activation(rng);
  t.nic_init = std::max<TimeNs>(nic_total - t.transceiver_init, ms_to_ns(100));
  return t;
}

std::vector<OcsTechnology> commodity_ocs_technologies() {
  return {
      {"Robotic (Telescent)", 1008, sec_to_ns(180.0), "several minutes"},
      {"Piezo (Polatis)", 576, ms_to_ns(17.5), "10-25 ms"},
      {"3D MEMS (Calient)", 320, ms_to_ns(12.5), "10-15 ms"},
      {"2D MEMS (Google Palomar)", 136, ms_to_ns(10.0), "not reported"},
      {"RotorNet (InFocus)", 128, us_to_ns(10.0), "10 us"},
      {"Silicon Photonics (Lightmatter)", 32, us_to_ns(7.0), "7 us"},
      {"PLZT (EpiPhotonics)", 16, 10, "10 ns"},
  };
}

}  // namespace mixnet::ocs
