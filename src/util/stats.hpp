// stats.hpp — streaming and batch statistics for experiment results.
//
// `RunningStats` keeps a streaming mean and min (the mean by Welford's
// incremental update) so that millions of samples can be
// accumulated without storing them.  `Sample`
// stores values for percentile queries and confidence intervals, which the
// experiment harness reports alongside every figure series.  `TopKPercentile`
// answers one high percentile of a stream of known maximum length exactly,
// holding only the values that can still reach it.
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

/// The mean and one percentile of a stream of at most `n_max` values, each
/// bit-identical to `Sample::mean` and `Sample::percentile_select` on the
/// same values, without storing them all.  Percentile p of n values
/// interpolates the order statistics at ranks lo and lo + 1 (ascending), so
/// only the top n − lo values matter, and n − lo grows with n: at most
/// `keep` = n_max − lo(n_max) of them.  Values that can still be among the
/// top `keep` go to a buffer of 2·keep; when it fills, a selection cuts it
/// back to the top `keep` and their minimum becomes the floor a later value
/// must exceed.  The sum runs in insertion order, as `Sample::mean`'s.
/// Values must not be NaN.
class TopKPercentile {
 public:
  /// p in [0, 100].  Reserves the 2·keep buffer once.
  TopKPercentile(double p, std::size_t n_max);

  /// Throws `std::length_error` past `n_max` values.
  void add(double x) {
    if (count_ == n_max_) throw_full();
    ++count_;
    sum_ += x;
    if (cut_ && !(x > floor_)) return;  // a tie with the floor changes no top value
    top_.push_back(x);
    if (top_.size() == 2 * keep_) cut();
  }

  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// `Sample::percentile_select(p)` of every value added.  Reorders the
  /// buffer, which `add` may keep filling afterwards.
  [[nodiscard]] double percentile();

 private:
  [[noreturn]] void throw_full() const;
  void cut();

  double p_;
  std::size_t n_max_;
  std::size_t keep_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  bool cut_ = false;  // floor_ holds once the buffer has been cut
  double floor_ = 0.0;
  std::vector<double> top_;
};

/// Least-squares fit of log(y) = a + b·log(x); returns the exponent b.
/// Used by the complexity benches to estimate empirical scaling orders.
[[nodiscard]] double fit_loglog_slope(const std::vector<double>& x,
                                      const std::vector<double>& y);

}  // namespace firefly::util
