#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace firefly::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate inside bucket i between its lower and upper bound.
    const double lower = i > 0 ? bounds_[i - 1] : min_;
    const double upper = i < bounds_.size() ? bounds_[i] : max_;
    const double fraction =
        std::clamp((target - before) / static_cast<double>(counts_[i]), 0.0, 1.0);
    const double interpolated = lower + (upper - lower) * fraction;
    // Never report outside the observed range (exact for 1-sample
    // histograms and for the overflow bucket).
    return std::clamp(interpolated, min_, max_);
  }
  return max_;
}

void Histogram::write_json(JsonWriter& w) const {
  w.begin_object()
      .field("count", count())
      .field("sum", sum())
      .field("min", min())
      .field("max", max())
      .field("mean", mean())
      .field("p50", quantile(0.50))
      .field("p90", quantile(0.90))
      .field("p99", quantile(0.99))
      .end_object();
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(upper_bounds))).first->second;
}

void Registry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, counter] : counters_) w.field(name, counter.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, gauge] : gauges_) w.field(name, gauge.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, histogram] : histograms_) {
    w.key(name);
    histogram.write_json(w);
  }
  w.end_object();
  w.end_object();
}

}  // namespace firefly::obs
