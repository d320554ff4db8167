#include "obs/telemetry.hpp"

#include <atomic>

namespace firefly::obs {

namespace {
// Timer buckets: 0.25 us .. ~8.6 s, log-spaced ×2.  Covers a single PRC
// jump through a whole Monte-Carlo trial.
std::vector<double> timer_bounds_us() {
  std::vector<double> bounds;
  double b = 0.25;
  for (int i = 0; i < 25; ++i) {
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}
}  // namespace

Telemetry::Telemetry() : epoch_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < kSpanIdCount; ++i) {
    const std::string name = std::string("span.") + span_name(static_cast<SpanId>(i));
    span_us_[i] = &registry_.histogram(name + ".us", timer_bounds_us());
    span_calls_[i] = &registry_.counter(name + ".calls");
  }
}

void Telemetry::record_span(SpanId id, std::chrono::steady_clock::time_point start,
                            std::chrono::nanoseconds duration, double sim_ms) {
  const auto index = static_cast<std::size_t>(id);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    span_us_[index]->observe(static_cast<double>(duration.count()) / 1000.0);
  }
  span_calls_[index]->inc();
  if (spans_ != nullptr) {
    spans_->add(Span{
        id, thread_id(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count(),
        duration.count(), sim_ms});
  }
}

void Telemetry::count(const std::string& name, std::uint64_t n) {
  counter(name).inc(n);
}

Counter& Telemetry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return registry_.counter(name);
}

void Telemetry::set_gauge(const std::string& name, double value) {
  Gauge* gauge;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    gauge = &registry_.gauge(name);
  }
  gauge->set(value);
}

void Telemetry::observe(const std::string& name, std::vector<double> upper_bounds,
                        double x) {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_.histogram(name, std::move(upper_bounds)).observe(x);
}

std::uint32_t Telemetry::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace firefly::obs
