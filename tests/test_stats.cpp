// Tests for streaming/batch statistics (src/util/stats.hpp).
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace {

using firefly::util::RunningStats;
using firefly::util::Sample;
using firefly::util::TopKPercentile;

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (const double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
}

TEST(Sample, PercentilesInterpolate) {
  Sample s;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 17.5);
}

TEST(Sample, SingleValue) {
  Sample s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(90.0), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Sample, AddAfterQueryResorts) {
  Sample s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  s.add(0.5);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.5);
}

TEST(Sample, PercentileSelectEqualsSortedPercentile) {
  // Random samples and heavily tied ones, every size class the rank
  // arithmetic distinguishes (1, 2, lo + 1 == n, large).
  firefly::util::Rng rng(9);
  for (const std::size_t n : {1, 2, 3, 10, 11, 1001}) {
    for (const bool tied : {false, true}) {
      std::vector<double> values(n);
      for (double& v : values) {
        v = tied ? static_cast<double>(rng.uniform_index(4)) * 0.25 : rng.uniform();
      }
      for (const double p : {0.0, 37.5, 50.0, 90.0, 99.0, 100.0}) {
        Sample sorted;
        Sample selected;
        for (const double v : values) {
          sorted.add(v);
          selected.add(v);
        }
        EXPECT_EQ(selected.percentile_select(p), sorted.percentile(p))
            << "n=" << n << " tied=" << tied << " p=" << p;
      }
    }
  }
  Sample empty;
  EXPECT_EQ(empty.percentile_select(90.0), 0.0);
}

TEST(Sample, Ci95ShrinksWithN) {
  firefly::util::Rng rng(9);
  Sample small, large;
  for (int i = 0; i < 20; ++i) small.add(rng.normal());
  for (int i = 0; i < 2000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

// The selector against Sample on the same values, bit for bit: the mean
// (insertion-order sum) and percentile_select's value.  `n_max` is the
// selector's bound, at least values.size().
void expect_selector_matches_sample(const std::vector<double>& values, double p,
                                    std::size_t n_max, const std::string& what) {
  Sample sample;
  TopKPercentile top(p, n_max);
  for (const double v : values) {
    sample.add(v);
    top.add(v);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(top.mean()), std::bit_cast<std::uint64_t>(sample.mean()))
      << what << " p=" << p;
  const double want = sample.percentile_select(p);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(top.percentile()), std::bit_cast<std::uint64_t>(want))
      << what << " p=" << p << " n=" << values.size() << " n_max=" << n_max;
}

TEST(TopKPercentile, EqualsPercentileSelectBitForBit) {
  firefly::util::Rng rng(23);
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {0, 1, 2, 3, 10, 11, 1001}) {
    std::vector<std::pair<std::string, std::vector<double>>> inputs;
    std::vector<double> random(n), ascending(n), ulp_steps(n), descending(n), equal(n, 0.375),
        tied(n), zeros(n), with_inf(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = rng.uniform();
      ascending[i] = static_cast<double>(i) * 0.01;
      // One ulp apart: a value just above the floor must still get in.
      ulp_steps[i] = i == 0 ? 1.0 : std::nextafter(ulp_steps[i - 1], 2.0);
      descending[i] = static_cast<double>(n - i) * 0.01;
      // Few distinct values: ranks lo and lo + 1 fall in one tie or
      // straddle two.
      tied[i] = static_cast<double>(rng.uniform_index(3)) * 0.5;
      zeros[i] = rng.bernoulli(0.7) ? 0.0 : rng.uniform();
      with_inf[i] = rng.bernoulli(0.2) ? inf : rng.uniform();
    }
    inputs.emplace_back("random", random);
    // Ascending input beats the floor every time, so it forces the most cuts.
    inputs.emplace_back("ascending", ascending);
    inputs.emplace_back("ulp steps", ulp_steps);
    inputs.emplace_back("descending", descending);
    inputs.emplace_back("all-equal", equal);
    inputs.emplace_back("tied", tied);
    inputs.emplace_back("zeros", zeros);
    inputs.emplace_back("inf", with_inf);
    for (const auto& [name, values] : inputs) {
      for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
        expect_selector_matches_sample(values, p, n, name + " n=" + std::to_string(n));
        // Fewer values than the bound, as the engine's co-located pairs
        // leave it: the buffer is larger than the ranks need.
        expect_selector_matches_sample(values, p, n + n / 3 + 1,
                                       name + " n=" + std::to_string(n) + " under bound");
      }
    }
  }
}

TEST(TopKPercentile, TiesStraddlingRanksLoAndLoPlusOne) {
  // p90 of 11 values reads ranks 9 and 10 (frac 0): put the step between
  // them, and at p = 95 (rank 9.5) interpolate across it.
  std::vector<double> values(11, 1.0);
  values[3] = 2.0;  // the single largest, inserted early so a cut could lose it
  expect_selector_matches_sample(values, 90.0, 11, "step at the top");
  expect_selector_matches_sample(values, 95.0, 11, "interpolating across the step");
  std::vector<double> two_levels(100, 0.25);
  for (std::size_t i = 0; i < 10; ++i) two_levels[i * 10] = 0.75;  // ten tied maxima
  expect_selector_matches_sample(two_levels, 90.0, 100, "ten tied maxima");
  expect_selector_matches_sample(two_levels, 89.5, 120, "ten tied maxima, under bound");
}

TEST(TopKPercentile, RejectsValuesPastItsBound) {
  TopKPercentile top(90.0, 10'000);
  for (int i = 0; i < 10'000; ++i) top.add(static_cast<double>(i));
  EXPECT_THROW(top.add(1.0), std::length_error);
  EXPECT_EQ(top.mean(), 4'999.5) << "the rejected value is not counted";
  TopKPercentile none(90.0, 0);
  EXPECT_EQ(none.percentile(), 0.0);
  EXPECT_EQ(none.mean(), 0.0);
  EXPECT_THROW(none.add(1.0), std::length_error);
}

TEST(FitLogLog, RecoversExponent) {
  std::vector<double> x, y;
  for (double v = 16.0; v <= 4096.0; v *= 2.0) {
    x.push_back(v);
    y.push_back(3.5 * v * v);  // slope 2
  }
  EXPECT_NEAR(firefly::util::fit_loglog_slope(x, y), 2.0, 1e-9);
}

TEST(FitLogLog, NLogNLandsBetweenOneAndTwo) {
  std::vector<double> x, y;
  for (double v = 64.0; v <= 65536.0; v *= 2.0) {
    x.push_back(v);
    y.push_back(v * std::log2(v));
  }
  const double slope = firefly::util::fit_loglog_slope(x, y);
  EXPECT_GT(slope, 1.0);
  EXPECT_LT(slope, 1.35);
}

TEST(FitLogLog, IgnoresNonPositivePoints) {
  const std::vector<double> x{-1.0, 2.0, 4.0, 8.0};
  const std::vector<double> y{5.0, 4.0, 8.0, 16.0};
  EXPECT_NEAR(firefly::util::fit_loglog_slope(x, y), 1.0, 1e-9);
}

}  // namespace
