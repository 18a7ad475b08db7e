// Serving-workload configuration (DESIGN.md §11).
//
// Every field is a flat scalar on purpose: ServeConfig is cache-key material
// (exp/cache_key_serve.cc serializes each leaf; the mixnet-lint cache-key
// analyzer for tools/lint/cache_key_serve.json enforces completeness), and
// flat scalars keep the leaf expansion trivially exhaustive. Values that no
// scenario varies are constants next to their reader instead of fields: the
// diurnal period and the storm window in workload.cc, the TTFT/TPOT SLO
// budget in metrics.cc.
#pragma once

#include <cstdint>

namespace mixnet::serve {

/// Arrival-rate envelope of the open-loop generator (serve/workload.h).
enum class ArrivalShape {
  kSteady = 0,   ///< homogeneous Poisson at arrival_rate_hz
  kDiurnal = 1,  ///< sinusoidal rate between base and base*burst_factor,
                 ///< over a fixed 8 s period
  kBurst = 2,    ///< base rate with a fixed [1 s, 3 s) storm at the peak
};

struct ServeConfig {
  // --- Open-loop arrival process -----------------------------------------
  int n_requests = 96;             ///< requests generated per point
  double arrival_rate_hz = 16.0;   ///< base Poisson rate (requests/s)
  ArrivalShape shape = ArrivalShape::kSteady;
  double burst_factor = 1.0;       ///< peak/base rate (kDiurnal, kBurst)

  // --- Request shape (lognormal token counts) ----------------------------
  double prompt_mu = 5.5;          ///< ln prompt tokens (e^5.5 ~ 245)
  double prompt_sigma = 0.6;
  double output_mu = 3.2;          ///< ln output tokens (e^3.2 ~ 25)
  double output_sigma = 0.5;

  // --- Engine -------------------------------------------------------------
  int max_batch_requests = 16;     ///< continuous-batching admission cap

  // --- Hotspot-driven expert re-placement ---------------------------------
  bool replacement_on = false;     ///< close the detector->Copilot->LPT loop
  int hotspot_window = 8;          ///< sliding window (engine steps)
  double hotspot_threshold = 1.35; ///< max/fair rank-load ratio that trips
  int hotspot_cooldown = 32;       ///< steps between re-placements
  double migration_ms_per_expert = 2.0;  ///< weight-transfer pause per move
};

}  // namespace mixnet::serve
