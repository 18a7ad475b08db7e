// Core unit types shared by every MixNet module.
//
// Conventions:
//   * time        -- int64_t nanoseconds (TimeNs). Wall-clock style helpers
//                    convert to/from seconds and milliseconds.
//   * data size   -- double bytes (Bytes). Traffic matrices accumulate many
//                    fractional shares, so floating point is deliberate.
//   * bandwidth   -- double bytes per second (Bps).
//
// Using a single canonical unit per dimension keeps unit bugs out of the
// simulator; the helpers below are the only conversion points.
#pragma once

#include <cstdint>

namespace mixnet {

/// Simulation time in nanoseconds.
using TimeNs = std::int64_t;

/// Data size in bytes (fractional values arise from fair-share accounting).
using Bytes = double;

/// Bandwidth in bytes per second.
using Bps = double;

inline constexpr TimeNs kNsPerUs = 1'000;
inline constexpr TimeNs kNsPerMs = 1'000'000;
inline constexpr TimeNs kNsPerSec = 1'000'000'000;

/// Largest representable time; used as "never" for event deadlines.
inline constexpr TimeNs kTimeInf = INT64_MAX / 4;

constexpr TimeNs us_to_ns(double us) { return static_cast<TimeNs>(us * 1e3); }
constexpr TimeNs ms_to_ns(double ms) { return static_cast<TimeNs>(ms * 1e6); }
constexpr TimeNs sec_to_ns(double s) { return static_cast<TimeNs>(s * 1e9); }

constexpr double ns_to_ms(TimeNs t) { return static_cast<double>(t) / 1e6; }
constexpr double ns_to_sec(TimeNs t) { return static_cast<double>(t) / 1e9; }

/// Link rates are quoted in Gbps throughout the paper; convert to bytes/sec.
constexpr Bps gbps(double g) { return g * 1e9 / 8.0; }

constexpr Bytes kib(double k) { return k * 1024.0; }
constexpr Bytes mib(double m) { return m * 1024.0 * 1024.0; }
constexpr Bytes gib(double g) { return g * 1024.0 * 1024.0 * 1024.0; }

/// Time to serialize `size` bytes at rate `rate` (rounded up to 1 ns).
constexpr TimeNs transmission_time(Bytes size, Bps rate) {
  if (rate <= 0.0) return kTimeInf;
  double t = size / rate * 1e9;
  if (t >= static_cast<double>(kTimeInf)) return kTimeInf;
  auto ns = static_cast<TimeNs>(t);
  return ns > 0 ? ns : 1;
}

}  // namespace mixnet
