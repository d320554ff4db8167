// device_soa.hpp — the per-device hot protocol state, as flat arrays.
//
// The per-slot sweeps read only a small hot subset of a device's state —
// oscillator slots, fault flags, drift, ST fragment label, DESYNC phase
// memory — so that subset lives here, index-aligned with the radio's dense
// device order, carved out of ONE `util::RegionArena` block per trial:
//
//   * a receiver sweep walks contiguous memory instead of striding structs,
//   * snapshot/restore of all hot scalars is a single memcpy of the region,
//   * a trial performs exactly one allocation for its hot state.
//
// Neighbor tables are hot too but own heap storage, so they sit beside the
// region in an index-aligned vector (restored element-wise, capacity-reusing).
// Cold fields — identity, position, ST tree bookkeeping, dedup sets — live
// in `core::Device`.  Each field has exactly one home.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/neighbor_table.hpp"
#include "sim/slot_calendar.hpp"
#include "util/arena.hpp"

namespace firefly::core {

struct DeviceHot {
  // --- oscillator ---
  std::int64_t* next_fire_slot = nullptr;
  std::int64_t* last_fire_slot = nullptr;
  std::int64_t* refractory_until_slot = nullptr;
  sim::EventId* fire_event = nullptr;

  // --- fault injection ---
  double* drift_ppm = nullptr;
  double* drift_residual = nullptr;
  bool* down = nullptr;

  // --- ST fragment hot subset ---
  std::uint16_t* fragment = nullptr;
  std::uint16_t* fragment_size = nullptr;
  bool* is_head = nullptr;
  /// ST's bound on fresh outgoing edges: every neighbour-table entry whose
  /// fragment differs from `outgoing_label` has last_heard_slot at most
  /// `outgoing_heard_bound` (INT64_MAX when such an entry was never heard,
  /// INT64_MIN when there is none).  ST's record path raises the bound and
  /// each full scan of the table recomputes both exactly, so while the
  /// device's label equals `outgoing_label` and the bound is older than
  /// the freshness window no outgoing edge can be fresh.
  std::uint16_t* outgoing_label = nullptr;
  std::int64_t* outgoing_heard_bound = nullptr;

  // --- DESYNC phase memory ---
  std::int64_t* desync_last_heard_slot = nullptr;
  std::int64_t* desync_prev_slot = nullptr;
  std::int32_t* desync_residual = nullptr;
  bool* desync_adjusted = nullptr;

  /// Index-aligned discovery tables (hot, but heap-owning — see header note).
  std::vector<NeighborTable> neighbors;

  /// One region snapshot = these bytes, verbatim.
  [[nodiscard]] std::byte* block() { return arena_.data(); }
  [[nodiscard]] std::size_t block_bytes() const { return arena_.used(); }
  /// The region's allocation (≥ block_bytes).
  [[nodiscard]] std::size_t block_capacity() const { return arena_.capacity(); }

  /// Allocate the region and carve every array for `n` devices, holding
  /// power-on values: no firing or refractory window yet (-1), unmeasured
  /// DESYNC memory (-1), every device a singleton fragment labelled with its
  /// own index, no outgoing-edge scan yet (kInvalidId, INT64_MIN);
  /// everything else zero.  Drift is the engine's to set.
  void build(std::size_t n);

 private:
  util::RegionArena arena_;
};

}  // namespace firefly::core
