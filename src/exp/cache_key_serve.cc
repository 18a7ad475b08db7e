// ServeConfig cache-key serialization, split out of cache_key.cc on
// purpose: the mixnet-lint cache-key completeness analyzer matches
// `<variable>.<field>` textually per impl file, so the TrainingConfig gate
// (variable `cfg`, cache_key.cc) and the ServeConfig gate (variable `scfg`,
// this file, tools/lint/cache_key_serve.json) each see exactly their own
// serializer lines.
#include "exp/cache_key.h"

namespace mixnet::exp {

void canonicalize_serve_config(const serve::ServeConfig& scfg,
                               CanonicalWriter& w) {
  // Open-loop arrival process.
  w.field("serve.n_requests", scfg.n_requests);
  w.field("serve.arrival_rate_hz", scfg.arrival_rate_hz);
  w.field("serve.shape", static_cast<int>(scfg.shape));
  w.field("serve.burst_factor", scfg.burst_factor);

  // Request shape.
  w.field("serve.prompt_mu", scfg.prompt_mu);
  w.field("serve.prompt_sigma", scfg.prompt_sigma);
  w.field("serve.output_mu", scfg.output_mu);
  w.field("serve.output_sigma", scfg.output_sigma);

  // Engine.
  w.field("serve.max_batch_requests", scfg.max_batch_requests);

  // Hotspot-driven re-placement loop.
  w.field("serve.replacement_on", scfg.replacement_on);
  w.field("serve.hotspot_window", scfg.hotspot_window);
  w.field("serve.hotspot_threshold", scfg.hotspot_threshold);
  w.field("serve.hotspot_cooldown", scfg.hotspot_cooldown);
  w.field("serve.migration_ms_per_expert", scfg.migration_ms_per_expert);
}

}  // namespace mixnet::exp
