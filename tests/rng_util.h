// Test-only random helpers over mixnet::Rng.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace mixnet::testing_util {

/// Uniform integer in [0, n) for n > 0 by rejection sampling over the raw
/// 64-bit stream (exactly uniform; fixes a test's draws for a given seed).
inline std::uint64_t uniform_below(Rng& rng, std::uint64_t n) {
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x;
  do {
    x = rng();
  } while (x >= limit);
  return x % n;
}

}  // namespace mixnet::testing_util
