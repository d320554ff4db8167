// energy.hpp — per-device energy accounting.
//
// The D2D discovery literature the paper builds on (its refs [4]–[9]) is
// dominated by the energy cost of discovery: beacon transmissions, receive
// decoding and idle listening.  This meter charges each activity at
// configurable power levels and integrates over slots, so the protocols can
// be compared on millijoules-to-convergence, not just messages.
//
// Default power levels are typical LTE UE figures: a 23 dBm (200 mW) PA at
// ~40% efficiency plus transmit circuitry ≈ 700 mW while transmitting,
// ~300 mW while actively receiving/decoding a PS, ~10 mW slot-idle
// listening (paging-style monitoring of the RACH opportunities).
#pragma once

#include <cstdint>
#include <vector>

namespace firefly::phy {

struct EnergyParams {
  double tx_mw{700.0};    ///< while transmitting one PS (one slot)
  double rx_mw{300.0};    ///< while decoding one received PS (one slot)
  double idle_mw{10.0};   ///< awake but idle (RACH monitoring)
  double sleep_mw{0.1};   ///< duty-cycled sleep
  double slot_seconds{1e-3};
};

/// Accumulates energy per device.  One meter per trial.
class EnergyMeter {
 public:
  EnergyMeter(std::size_t device_count, EnergyParams params = {});

  void record_tx(std::uint32_t device) { ++tx_slots_[device]; }
  void record_rx(std::uint32_t device) { ++rx_slots_[device]; }

  /// Total energy of one device over `elapsed_slots` simulated slots, in
  /// millijoules.  Idle slots = elapsed − tx − rx (clamped at zero: a slot
  /// with both a tx and several rx is charged per activity, which slightly
  /// over-counts busy slots — the conservative direction).  With a
  /// duty-cycled receiver, `awake_fraction` of the non-busy time is charged
  /// at idle power and the rest at sleep power.
  [[nodiscard]] double device_energy_mj(std::uint32_t device, std::int64_t elapsed_slots,
                                        double awake_fraction = 1.0) const;

  /// Sum over devices, millijoules.
  [[nodiscard]] double total_energy_mj(std::int64_t elapsed_slots,
                                       double awake_fraction = 1.0) const;
  /// Mean per device, millijoules.
  [[nodiscard]] double mean_energy_mj(std::int64_t elapsed_slots,
                                      double awake_fraction = 1.0) const;

 private:
  EnergyParams params_;
  std::vector<std::uint64_t> tx_slots_;
  std::vector<std::uint64_t> rx_slots_;
};

}  // namespace firefly::phy
