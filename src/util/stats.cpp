#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace firefly::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

void Sample::add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

void Sample::ensure_sorted() const {
  if (!sorted_) {
    auto& v = const_cast<std::vector<double>&>(values_);
    std::sort(v.begin(), v.end());
    const_cast<bool&>(sorted_) = true;
  }
}

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Sample::stddev() const {
  const std::size_t n = values_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(n - 1));
}

namespace {
/// Percentile p of n ≥ 2 sorted values interpolates order statistics lo and
/// lo + 1 (clamped to n − 1) with weight frac on the upper one.
struct Rank {
  std::size_t lo;
  double frac;
};
Rank rank_of(double p, std::size_t n) {
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, rank - static_cast<double>(lo)};
}
}  // namespace

double Sample::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  if (values_.empty()) return 0.0;
  ensure_sorted();
  if (values_.size() == 1) return values_[0];
  const Rank r = rank_of(p, values_.size());
  const std::size_t hi = std::min(r.lo + 1, values_.size() - 1);
  return values_[r.lo] * (1.0 - r.frac) + values_[hi] * r.frac;
}

double Sample::percentile_select(double p) {
  assert(p >= 0.0 && p <= 100.0);
  if (sorted_ || values_.size() < 2) return percentile(p);
  const Rank r = rank_of(p, values_.size());
  const auto lo = values_.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values_.begin(), lo, values_.end());
  // After the partition every value past lo is ≥ *lo, so the next order
  // statistic is their minimum.
  const double hi = lo + 1 != values_.end() ? *std::min_element(lo + 1, values_.end()) : *lo;
  return *lo * (1.0 - r.frac) + hi * r.frac;
}

double Sample::ci95_halfwidth() const {
  const std::size_t n = values_.size();
  if (n < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n));
}

double fit_loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0 || y[i] <= 0.0) continue;
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++used;
  }
  if (used < 2) return 0.0;
  const double un = static_cast<double>(used);
  const double denom = un * sxx - sx * sx;
  if (std::fabs(denom) < std::numeric_limits<double>::epsilon()) return 0.0;
  return (un * sxy - sx * sy) / denom;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace firefly::util
