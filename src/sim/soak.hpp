// soak.hpp — windowed soak telemetry for long-lived service runs.
//
// A service-mode run never "converges and exits"; instead it slices simulated
// time into fixed windows and emits one `SoakWindow` record per slice: live
// device count, churn and message-rate deltas, fraction-of-time-synced,
// re-sync latency, and the scheduler-arena footprint that backs the
// bounded-memory invariant.  `SoakRecorder` is the delivery channel: a
// streaming consumer callback hands every window to the caller (the CLI's
// JSONL writer); without one the recorder only counts what it was given, so
// a soak's memory never grows with its length.
//
// This layer is deliberately engine-agnostic — plain structs and counters —
// so it sits in src/sim below src/core in the layering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace firefly::sim {

/// One telemetry window of a service-mode run.  Counter-like fields are
/// deltas over the window; gauge-like fields (live_devices, events_live,
/// arena_*) are sampled at the window's end slot.
struct SoakWindow {
  std::uint64_t index = 0;
  std::int64_t start_slot = 0;
  std::int64_t end_slot = 0;

  // Population & churn over the window.
  std::uint32_t live_devices = 0;
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;

  // Traffic over the window.
  std::uint64_t messages = 0;      // transmissions (RACH1 + RACH2)
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t fault_drops = 0;
  double msg_rate_per_slot = 0.0;

  // Synchronisation health.
  bool synced_once = false;        // network has reached global sync at least once
  double sync_fraction = 0.0;      // fraction of sampled slots spent aligned
  std::uint32_t resyncs = 0;       // desync->resync episodes completed this window
  double mean_resync_ms = 0.0;     // mean re-sync latency of those episodes

  // Graceful-degradation counters.
  std::uint64_t relabels = 0;            // headless-fragment re-elections granted
  std::uint64_t relabels_suppressed = 0; // re-elections refused by the storm cap

  // Protocol-specific gauges (filled by EngineBase::fill_soak_window;
  // zero for protocols without the observable).
  double desync_error = 0.0;       // DESYNC: mean midpoint residual (slots)

  // Scheduler footprint (bounded-memory probe).
  std::uint64_t events_live = 0;
  std::uint64_t arena_capacity = 0;
  std::uint64_t arena_high_water = 0;
  std::uint64_t events_processed = 0;  // cumulative, sampled at end_slot

  friend bool operator==(const SoakWindow&, const SoakWindow&) = default;
};

/// Bounded delivery channel for SoakWindow records.
///
/// Two modes:
///   * streaming — `set_consumer()` installed: every push is handed straight
///     to the consumer, nothing is buffered, nothing is dropped;
///   * counting — no consumer: no window is stored.  The first `capacity`
///     pushes count as buffered, and each push beyond them counts as one
///     `dropped()` window, the backpressure a slow or absent consumer
///     would see; the loss is visible instead of silent.
class SoakRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  using Consumer = std::function<void(const SoakWindow&)>;

  explicit SoakRecorder(std::size_t capacity = kDefaultCapacity);

  /// Install a streaming consumer (replaces counting for subsequent pushes).
  void set_consumer(Consumer consumer) { consumer_ = std::move(consumer); }

  void push(const SoakWindow& window);

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  Consumer consumer_;
};

}  // namespace firefly::sim
