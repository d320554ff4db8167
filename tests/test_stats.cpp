// Tests for streaming/batch statistics (src/util/stats.hpp).
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace {

using firefly::util::RunningStats;
using firefly::util::Sample;

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
