// stats.hpp — streaming and batch statistics for experiment results.
//
// `RunningStats` keeps a streaming mean and min (the mean by Welford's
// incremental update) so that millions of samples can be
// accumulated without storing them.  `Sample`
// stores values for percentile queries and confidence intervals, which the
// experiment harness reports alongside every figure series.
#pragma once

#include <cstddef>
#include <vector>

namespace firefly::util {

/// Streaming mean/min accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
};

/// Value-retaining sample for order statistics.
class Sample {
 public:
  void add(double x);
  /// Room for `n` values, so filling a sample of known size allocates once.
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  /// The value `percentile(p)` returns, found by selection (O(n)) rather
  /// than a full sort.  Reorders the stored values, so read order-sensitive
  /// statistics (`mean` sums in insertion order) first.
  [[nodiscard]] double percentile_select(double p);
  [[nodiscard]] double median() const { return percentile(50.0); }
  /// Half-width of the t-distribution-free normal-approximation 95% CI.
  [[nodiscard]] double ci95_halfwidth() const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Least-squares fit of log(y) = a + b·log(x); returns the exponent b.
/// Used by the complexity benches to estimate empirical scaling orders.
[[nodiscard]] double fit_loglog_slope(const std::vector<double>& x,
                                      const std::vector<double>& y);

}  // namespace firefly::util
