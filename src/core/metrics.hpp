// metrics.hpp — what a single protocol run reports.
//
// `RunMetrics` carries everything Figs. 3 and 4 plot plus the discovery-
// quality numbers the paper discusses qualitatively: convergence time,
// per-codec message counts taken from the radio's meter, collision counts,
// and RSSI-ranging accuracy measured against ground-truth positions.
#pragma once

#include <cstdint>

namespace firefly::core {

struct RunMetrics {
  // --- Fig. 3 ---
  // Convergence is the paper's twin goal achieved simultaneously: sustained
  // global firing alignment AND complete neighbour discovery on every
  // reliable proximity link.  convergence_ms = max(sync_ms, discovery_ms).
  bool converged{false};
  double convergence_ms{0.0};
  double sync_ms{0.0};            ///< first sustained global firing alignment
  double discovery_ms{0.0};       ///< all reliable links discovered both ways
  bool locally_converged{false};
  double local_sync_ms{0.0};      ///< per-link alignment (diagnostic; <= sync_ms)

  // --- Fig. 4 (measured at the radio medium) ---
  std::uint64_t rach1_messages{0};
  std::uint64_t rach2_messages{0};
  std::uint64_t collisions{0};
  std::uint64_t deliveries{0};
  [[nodiscard]] std::uint64_t total_messages() const {
    return rach1_messages + rach2_messages;
  }

  // --- discovery quality ---
  double mean_neighbors_discovered{0.0};
  double mean_service_peers{0.0};
  double ranging_mean_abs_rel_error{0.0};  ///< mean |r_est/r_true - 1|
  double ranging_p90_rel_error{0.0};

  // --- topology (ST only; zero for FST) ---
  std::uint32_t final_fragments{0};
  std::uint32_t tree_edges{0};
  double tree_weight_dbm{0.0};    ///< sum of tree edge weights (PS strength)
  double tree_service_affinity{0.0};  ///< fraction of tree edges joining same-service UEs

  // --- desynchronisation (DESYNC only; zero for the sync protocols) ---
  double desync_error{0.0};         ///< mean |midpoint residual| (slots)
  double desync_spread_slots{0.0};  ///< max−min cyclic firing-phase gap (slots)

  // --- energy (refs [4]-[9] motivation: discovery power cost) ---
  double total_energy_mj{0.0};        ///< all devices, to the stop instant
  double mean_device_energy_mj{0.0};
  double energy_per_neighbor_mj{0.0}; ///< mean energy / mean neighbours found

  // --- resilience (fault-injection runs; all zero when fault-free) ---
  std::uint32_t crashes{0};
  std::uint32_t recoveries{0};
  std::uint32_t fade_episodes{0};
  std::uint64_t fault_drops{0};       ///< receptions vetoed by fades/iid loss
  std::uint32_t resyncs{0};           ///< completed desync->resync episodes
  double mean_resync_ms{0.0};         ///< mean time to regain alignment
  double max_resync_ms{0.0};
  double sync_uptime{0.0};            ///< aligned fraction of post-first-sync time
  bool in_sync_at_end{false};
  /// Every RACH2 sent after the first convergence: ST's per-period sync
  /// floods as well as its repair traffic, so not a repair count on its own.
  std::uint64_t repair_messages{0};
  std::uint32_t alive_at_end{0};
  /// True when the reliable-link graph over the devices alive at the end is
  /// disconnected — re-convergence to one synchronised fragment is then
  /// impossible, and the run is diagnosed rather than failed.
  bool partitioned{false};

  // --- engine accounting ---
  std::uint64_t events_processed{0};
  double simulated_ms{0.0};

  /// Field-wise equality — the telemetry-off invariance tests assert that
  /// attaching observers leaves every reported number bit-identical.
  [[nodiscard]] friend bool operator==(const RunMetrics&, const RunMetrics&) = default;
};

}  // namespace firefly::core
