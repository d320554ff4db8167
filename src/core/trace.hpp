// trace.hpp — optional structured run tracing.
//
// When a `TraceSink` is attached to an engine, protocol milestones are
// recorded as (time, device, kind, a, b) rows and can be dumped to CSV for
// visualisation or debugging: every firing, every fragment merge, head
// changes, phase adoptions and the convergence instants.  Tracing is off by
// default and costs nothing when detached (a null check per event).
//
// Long chaos soaks and multi-hour CLI runs record millions of events, so
// the sink optionally runs as a ring: `set_capacity(n)` keeps the most
// recent n events, counts the overwritten ones in `dropped()`, and can
// mirror that count into an obs registry counter (`set_drop_counter`).
// The default stays unlimited for short runs and golden tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace firefly::core {

enum class TraceKind : std::uint8_t {
  kFire = 0,        ///< device fired (a = counter after reset)
  kMerge = 1,       ///< fragments merged (a = winner, b = loser)
  kHeadChange = 2,  ///< headship moved (a = new head device)
  kAdopt = 3,       ///< device adopted a phase (a = counter)
  kSync = 4,        ///< global sync achieved (device = 0, a = slot)
  kDiscovery = 5,   ///< discovery completed (device = 0, a = slot)
  kCrash = 6,       ///< fault injection crashed the device
  kRecover = 7,     ///< device recovered with cold-boot state
  kFadeStart = 8,   ///< deep-fade episode opened (a, b = link endpoints)
  kFadeEnd = 9,     ///< deep-fade episode closed (a, b = link endpoints)
  kRelabel = 10,    ///< head lease expired; device re-labelled its remnant
                    ///< fragment under its own id (b = old label)
};

[[nodiscard]] const char* to_string(TraceKind kind);

struct TraceEvent {
  double time_ms{0.0};
  std::uint32_t device{0};
  TraceKind kind{TraceKind::kFire};
  std::uint32_t a{0};
  std::uint32_t b{0};
};

class TraceSink {
 public:
  void record(double time_ms, std::uint32_t device, TraceKind kind, std::uint32_t a = 0,
              std::uint32_t b = 0) {
    const TraceEvent event{time_ms, device, kind, a, b};
    if (capacity_ == 0 || events_.size() < capacity_) {
      events_.push_back(event);
      return;
    }
    events_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    if (drop_counter_ != nullptr) drop_counter_->inc();
  }

  /// Keep only the most recent `capacity` events (0 = unlimited).  Must be
  /// set before recording starts; shrinking an already-full sink is not
  /// supported.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  /// Events the ring has overwritten.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Mirror drops into an obs registry counter (not owned; may be null).
  void set_drop_counter(obs::Counter* counter) { drop_counter_ = counter; }

  /// Buffered events; chronological unless the ring has wrapped (use
  /// snapshot() when order matters on capped sinks).
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  /// Buffered events in chronological order, ring or not.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t count(TraceKind kind) const;

  /// Write "time_ms,device,kind,a,b" rows (chronological).
  void write_csv(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
  obs::Counter* drop_counter_ = nullptr;
};

}  // namespace firefly::core
