// Canonical content hash of a sweep point (DESIGN.md §9).
//
// The key is the 128-bit digest of (cache schema version, scenario id,
// measured iterations, every code-relevant TrainingConfig field) serialized
// through common/canonical.h: insensitive to field *reordering* in the
// serializer, sensitive to any *semantic* change -- a different value, a
// renamed field, a new field (all fields are always serialized, so adding
// one invalidates every key, which is the safe direction).
//
// Cache-key discipline: the key hashes configuration, not code. A change to
// simulation *semantics* that leaves TrainingConfig untouched MUST bump
// kCacheSchemaVersion, or stale results will be served. Reviewers: treat
// any behavioral src/sim, src/moe, src/net, src/control, src/dag change
// without a version bump as a correctness bug.
#pragma once

#include <string>

#include "common/canonical.h"
#include "exp/scenario.h"

namespace mixnet::exp {

/// Bump on any simulation-semantics change that TrainingConfig cannot see.
/// v2: serving subsystem (SweepPoint::serve discriminator + ServeConfig
/// fields join the key material).
/// v3: fidelity ladder — NetBackend + pkt::PacketConfig join TrainingConfig
/// and the key material; collectives run on a Transport interface.
/// v4: analytic-core fabrics — CoreModel joins TrainingConfig and the key
/// material; SoA FlowSim + arena event pool change floating-point reduction
/// order, so durations can differ in the last ulp from v3.
/// v5: the gate RNG has a single draw mode, so GateConfig's draw-mode field
/// leaves the key material (results are unchanged; the key's field set is
/// not).
inline constexpr int kCacheSchemaVersion = 5;

/// Serialize every code-relevant TrainingConfig field into `w`.
void canonicalize_config(const sim::TrainingConfig& cfg, CanonicalWriter& w);

/// Serialize every ServeConfig field into `w` (cache_key_serve.cc — a
/// separate translation unit so the TrainingConfig completeness analyzer
/// never sees `scfg.` lines and vice versa).
void canonicalize_serve_config(const serve::ServeConfig& scfg,
                               CanonicalWriter& w);

/// The content key of one sweep point under a scenario namespace:
/// 32 lowercase hex chars.
std::string point_cache_key(const std::string& scenario,
                            const SweepPoint& point);

}  // namespace mixnet::exp
