// Stochastic models of the prototype's optical hardware (§6, Appendix C).
//
// Calibrated to the published testbed measurements of the Polatis
// millisecond OCS and commodity transceivers/NICs:
//   * Fig. 21 -- reconfiguration delay grows mildly with the number of
//     switched pairs (means 41.4 / 42.4 / 46.8 ms for 1 / 4 / 16 pairs;
//     p99 ~ 60 / 62 / 68 ms; 99% < 70 ms).
//   * Fig. 22 -- control timeline: TL1 command + OCS switching is a small
//     prefix; transceiver & NIC initialization dominates (~5 s).
//   * Fig. 23 -- NIC activation after reconfiguration: mean 5.67 s,
//     p99 ~ 6.33 s (excluded from training-time accounting, as in §C).
//
// The calibration is a set of named constants in hardware.cc, not a config:
// no experiment varies the measured hardware, so the samplers are free
// functions of the caller's Rng alone.
//
// Table 2's commodity OCS technology matrix is also provided for the
// design-space benches.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace mixnet::ocs {

/// Sample an OCS reconfiguration delay for `n_pairs` simultaneously
/// switched cross-connects (Fig. 21).
TimeNs sample_reconfig_delay(int n_pairs, Rng& rng);

/// Sample NIC re-activation time after circuits settle (Fig. 23).
TimeNs sample_nic_activation(Rng& rng);

/// Full control timeline (Fig. 22): command, switch, link init, NIC init.
struct ControlTimeline {
  TimeNs command;
  TimeNs ocs_reconfig;
  TimeNs transceiver_init;
  TimeNs nic_init;
  TimeNs total() const { return command + ocs_reconfig + transceiver_init + nic_init; }
};
ControlTimeline sample_control_timeline(int n_pairs, Rng& rng);

/// Table 2: commodity OCS technology trade-off.
struct OcsTechnology {
  std::string name;
  int port_count;
  TimeNs reconfig_delay;
  std::string delay_note;
};
std::vector<OcsTechnology> commodity_ocs_technologies();

}  // namespace mixnet::ocs
