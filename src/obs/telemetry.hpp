// telemetry.hpp — the telemetry context the engines observe through.
//
// A `Telemetry` owns one metric `Registry`, pre-registers a latency
// histogram and call counter per instrumented span (span.<name>.us /
// span.<name>.calls), and optionally forwards completed spans to a
// `SpanSink` for Chrome-trace export.  Hot paths hold a `Telemetry*` that
// is null by default: with no context attached every instrumentation site
// reduces to one pointer test, the simulation consumes no extra randomness
// and `RunMetrics` is bit-identical to an uninstrumented run.
//
// Thread model: `record_span`, `count`, `counter`, `set_gauge` and
// `observe` serialise through an internal mutex, so one context may be
// shared by all trials of a pooled sweep; contention is negligible because
// spans are recorded at slot/handshake granularity, not per arithmetic op.
// `registry()` itself is unlocked: engines reach metrics only through the
// locked accessors, and readers dump the registry after the trials end.
#pragma once

#include <array>
#include <chrono>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace firefly::obs {

class Telemetry {
 public:
  Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }

  /// Forward spans to `sink` (not owned; null detaches).
  void attach_spans(SpanSink* sink) { spans_ = sink; }
  [[nodiscard]] SpanSink* spans() const { return spans_; }

  /// Record one completed span: histogram + counter, plus the span sink
  /// when attached.  Called by ScopedTimer; thread-safe.
  void record_span(SpanId id, std::chrono::steady_clock::time_point start,
                   std::chrono::nanoseconds duration, double sim_ms);

  /// Thread-safe find-or-create + increment for cold-path event counts.
  void count(const std::string& name, std::uint64_t n = 1);
  /// Thread-safe find-or-create of a counter handle; the handle itself is
  /// an atomic, so holders bump it without the lock.
  [[nodiscard]] Counter& counter(const std::string& name);
  /// Thread-safe find-or-create + store for a gauge (last writer wins).
  void set_gauge(const std::string& name, double value);
  /// Thread-safe observation into a find-or-create histogram.
  void observe(const std::string& name, std::vector<double> upper_bounds, double x);

  /// Dense id for the calling thread (for span attribution).
  [[nodiscard]] static std::uint32_t thread_id();

 private:
  std::mutex mutex_;
  Registry registry_;
  std::array<Histogram*, kSpanIdCount> span_us_{};
  std::array<Counter*, kSpanIdCount> span_calls_{};
  SpanSink* spans_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace firefly::obs
