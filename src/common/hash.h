// Cheap 64-bit hashing for cache keys (phase memoization, demand matrices).
//
// FNV-1a over raw 64-bit lanes with a splitmix64 finalizer. Not
// cryptographic; collision probability is negligible for the cache sizes
// involved (hundreds of live keys), and callers that cannot tolerate a
// collision at all keep the full key material alongside the hash.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/matrix.h"

namespace mixnet {

/// splitmix64 finalizer: diffuses all input bits across the word.
constexpr std::uint64_t hash64_finalize(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Fold one 64-bit lane into a running FNV-1a style state.
constexpr std::uint64_t hash64_mix(std::uint64_t state, std::uint64_t lane) {
  constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
  return (state ^ hash64_finalize(lane)) * kFnvPrime;
}

inline constexpr std::uint64_t kHash64Seed = 0xCBF29CE484222325ULL;  // FNV offset

/// Bit-exact lane for a double (distinguishes -0.0/0.0 and NaN payloads,
/// which is fine for cache keys: equal bit patterns => equal values).
inline std::uint64_t hash64_lane(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Hash a span of doubles (traffic-matrix rows, payload sizes).
inline std::uint64_t hash64(const double* data, std::size_t n,
                            std::uint64_t seed = kHash64Seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) h = hash64_mix(h, hash64_lane(data[i]));
  return hash64_finalize(h);
}

/// Hash a span of ints (participant server lists).
inline std::uint64_t hash64(const int* data, std::size_t n,
                            std::uint64_t seed = kHash64Seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i)
    h = hash64_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(data[i])));
  return hash64_finalize(h);
}

inline std::uint64_t hash64(const std::vector<int>& xs,
                            std::uint64_t seed = kHash64Seed) {
  return hash64(xs.data(), xs.size(), seed);
}

/// Hash an arbitrary byte span (canonical-serialization digests). Bytes are
/// packed little-endian into 64-bit lanes; the length is mixed in first so
/// spans that differ only by trailing zero bytes hash differently.
inline std::uint64_t hash64_bytes(const void* data, std::size_t n,
                                  std::uint64_t seed = kHash64Seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash64_mix(seed, static_cast<std::uint64_t>(n));
  while (n >= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p, 8);
    h = hash64_mix(h, lane);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, n);
    h = hash64_mix(h, lane);
  }
  return hash64_finalize(h);
}

/// Cheap 64-bit demand-matrix hash: dimensions plus every entry's bit
/// pattern. Only perfbench's traced replay uses it, to key its first-visit
/// routing (until the benchmark change that retires perfbench/harness).
inline std::uint64_t matrix_hash(const Matrix& m, std::uint64_t seed = kHash64Seed) {
  std::uint64_t h = hash64_mix(seed, m.rows());
  h = hash64_mix(h, m.cols());
  for (double v : m.data()) h = hash64_mix(h, hash64_lane(v));
  return hash64_finalize(h);
}

}  // namespace mixnet
