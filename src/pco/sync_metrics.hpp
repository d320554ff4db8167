// sync_metrics.hpp — how synchronised is a population of oscillators?
//
// The measure is the circular spread: the smallest arc of the unit circle
// containing every phase — the paper's operational criterion "all devices
// fire at a time" corresponds to spread ≤ one slot.
// `ConvergenceDetector` tracks per-device firing times and reports the
// first time the population stayed aligned for a full period (so a
// transient coincidence does not count as convergence).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/capacity.hpp"

namespace firefly::pco {

/// Smallest arc (in phase units, [0, 1]) containing all phases.
[[nodiscard]] double circular_spread(std::span<const double> phases);

/// Firing-time-based convergence detection for slotted protocols.
class ConvergenceDetector {
 public:
  /// `n` devices; aligned means the wrapped spread of the devices' last
  /// firing slots modulo `period_slots` is <= `tolerance_slots`.
  ConvergenceDetector(std::size_t n, std::uint32_t period_slots,
                      std::uint32_t tolerance_slots);

  /// Record that device `id` fired in absolute slot `slot`.
  void record_fire(std::uint32_t id, std::int64_t slot);

  /// Crash/recover lifecycle: an inactive device is excluded from the
  /// spread and from the everyone-has-fired requirement.  Re-activating
  /// clears the device's firing record — a cold-booted oscillator must fire
  /// again (and land inside the tolerance) before it counts as aligned.
  void set_active(std::uint32_t id, bool active);

  /// Evaluate at the current absolute slot.  Once every device has fired at
  /// least once and alignment has held for `period_slots` consecutive
  /// slots, returns the slot at which alignment was first achieved.
  [[nodiscard]] std::optional<std::int64_t> converged_at(std::int64_t current_slot);

  /// Instantaneous alignment (no sustained-hold requirement): every active
  /// device has fired and the spread is within tolerance.  The resilience
  /// metrics sample this to track desync/resync episodes under faults.
  [[nodiscard]] bool aligned_now() const;

  /// Wrapped spread of last firing slots in whole slots (exact integer
  /// arithmetic); `period_slots` until all devices have fired.
  [[nodiscard]] std::int64_t spread_slots() const;

 private:
  std::uint32_t period_slots_;
  std::uint32_t tolerance_slots_;
  std::vector<std::int64_t> last_fire_;  // -1 = never
  std::vector<std::uint8_t> active_;     // 0 = crashed (excluded)
  std::size_t fired_count_ = 0;          // active devices that have fired
  std::size_t active_count_ = 0;
  std::optional<std::int64_t> aligned_since_;
};

/// Local (per-link) synchronisation detection.
///
/// On a slotted multi-hop radio, pulse propagation is one slot per hop, so
/// *global* firing alignment tighter than the network radius is physically
/// unreachable for a pure pulse-coupled protocol; what D2D needs — and what
/// the distributed-synchronisation literature measures — is that every
/// device is slot-aligned with the devices it can actually communicate
/// with.  `LocalSyncDetector` therefore requires, for every proximity edge
/// (u, v), that the two last firing slots agree modulo the period within a
/// tolerance, sustained for one full period.
class LocalSyncDetector {
 public:
  LocalSyncDetector(std::size_t n, std::uint32_t period_slots, std::uint32_t tolerance_slots);

  /// Declare a proximity edge that must be aligned.
  void add_edge(std::uint32_t u, std::uint32_t v);

  void record_fire(std::uint32_t id, std::int64_t slot);

  /// Crash/recover lifecycle: edges with an inactive endpoint are waived;
  /// re-activation clears the device's firing record (see
  /// `ConvergenceDetector::set_active`).
  void set_active(std::uint32_t id, bool active);

  /// First slot of the currently sustained alignment, once it has held for
  /// a full period and every device has fired.
  [[nodiscard]] std::optional<std::int64_t> converged_at(std::int64_t current_slot);

  /// Heap bytes of the edge list.
  [[nodiscard]] std::size_t edge_bytes() const { return util::capacity_bytes(edges_); }

 private:
  [[nodiscard]] bool edge_aligned(std::uint32_t u, std::uint32_t v) const;

  std::uint32_t period_slots_;
  std::uint32_t tolerance_slots_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<std::int64_t> last_fire_;
  std::vector<std::uint8_t> active_;
  std::size_t fired_count_ = 0;
  std::size_t active_count_ = 0;
  std::optional<std::int64_t> aligned_since_;
};

}  // namespace firefly::pco
