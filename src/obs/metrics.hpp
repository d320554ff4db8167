// metrics.hpp — the metric registry: named counters, gauges and fixed-bucket
// histograms with streaming quantiles.
//
// Design constraints, in order:
//   * deterministic export — registry snapshots iterate in name order and
//     hold no wall-clock state, so two identical runs dump identical JSON;
//   * allocation-light hot path — callers look a metric up once (stable
//     address for the lifetime of the registry) and then update through the
//     pointer; an update is an add or a bucket increment, never a malloc;
//   * thread model — `Counter` is a relaxed atomic (safe to bump from
//     pooled sweep trials); `Gauge` stores through an atomic double;
//     `Histogram` and registry mutation are NOT thread-safe on their own —
//     concurrent writers go through `Telemetry`, which serialises them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace firefly::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with interpolated streaming quantiles.
///
/// Buckets are defined by ascending upper bounds; one implicit overflow
/// bucket catches everything above the last bound.  Quantiles interpolate
/// linearly inside the selected bucket and are clamped to the observed
/// [min, max], so a single-sample histogram reports that sample exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  /// q in [0, 1].  Empty histogram -> 0.
  [[nodiscard]] double quantile(double q) const;

  /// {count,sum,min,max,mean,p50,p90,p99} as one JSON object.
  void write_json(JsonWriter& w) const;

 private:
  std::vector<double> bounds_;          // ascending upper bounds
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics with stable addresses and name-ordered export.
class Registry {
 public:
  /// Find-or-create; the returned reference stays valid for the registry's
  /// lifetime (std::map nodes never move).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is used only on first creation of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// each section in name order.
  void write_json(JsonWriter& w) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace firefly::obs
