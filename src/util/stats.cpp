#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace firefly::util {

void RunningStats::add(double x) {
  min_ = count_ == 0 ? x : std::min(min_, x);
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
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

TopKPercentile::TopKPercentile(double p, std::size_t n_max)
    : p_(p), n_max_(n_max), keep_(n_max < 2 ? n_max : n_max - rank_of(p, n_max).lo) {
  assert(p >= 0.0 && p <= 100.0);
  top_.reserve(2 * keep_);
}

void TopKPercentile::throw_full() const {
  throw std::length_error("TopKPercentile: more values than n_max");
}

void TopKPercentile::cut() {
  // The top keep_ values to the front, the keep_-th largest at keep_ − 1.
  const auto last = top_.begin() + static_cast<std::ptrdiff_t>(keep_ - 1);
  std::nth_element(top_.begin(), last, top_.end(), std::greater<>());
  floor_ = *last;
  cut_ = true;
  top_.resize(keep_);
}

double TopKPercentile::percentile() {
  if (count_ == 0) return 0.0;
  if (count_ == 1) return top_[0];
  const Rank r = rank_of(p_, count_);
  // Ranks lo and lo + 1 ascending are the need-th and (need − 1)-th largest
  // (1-based); need ≤ keep_ ≤ top_.size() because n − lo grows with n.
  const std::size_t need = count_ - r.lo;
  assert(need <= top_.size());
  const auto lo = top_.begin() + static_cast<std::ptrdiff_t>(need - 1);
  std::nth_element(top_.begin(), lo, top_.end(), std::greater<>());
  // Every value before lo is ≥ *lo, so the next order statistic up is
  // their minimum (rank lo + 1 clamps to lo when lo is the largest).
  const double hi = lo != top_.begin() ? *std::min_element(top_.begin(), lo) : *lo;
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

}  // namespace firefly::util
