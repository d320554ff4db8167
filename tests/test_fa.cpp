// Tests for the firefly optimisation algorithm (src/fa/firefly.hpp) and the
// paper's O(n²) vs O(n log n) complexity claim.
#include "fa/firefly.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fa/objective.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace firefly::fa;
using firefly::util::Rng;

FaConfig base_config(Strategy strategy) {
  FaConfig config;
  config.population = 30;
  config.dimensions = 2;
  config.generations = 80;
  config.strategy = strategy;
  return config;
}

class StrategyTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategyTest, FindsSphereOptimum) {
  FireflyOptimizer opt(base_config(GetParam()), sphere(), Rng(1));
  const FaResult result = opt.run();
  EXPECT_GT(result.best_value, -0.05);  // optimum is 0 at the origin
  ASSERT_EQ(result.best_position.size(), 2U);
  for (const double x : result.best_position) EXPECT_NEAR(x, 0.0, 0.3);
}

TEST_P(StrategyTest, ImprovesMonotonicallyOnAverage) {
  FireflyOptimizer opt(base_config(GetParam()), sphere(), Rng(2));
  const FaResult result = opt.run();
  ASSERT_GE(result.best_by_generation.size(), 10U);
  const double early = result.best_by_generation[4];
  const double late = result.best_by_generation.back();
  EXPECT_GE(late, early);
}

TEST_P(StrategyTest, DeterministicGivenSeed) {
  const FaResult a = FireflyOptimizer(base_config(GetParam()), sphere(), Rng(3)).run();
  const FaResult b = FireflyOptimizer(base_config(GetParam()), sphere(), Rng(3)).run();
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.best_position, b.best_position);
}

TEST_P(StrategyTest, RespectsBounds) {
  FaConfig config = base_config(GetParam());
  config.lower_bound = -1.0;
  config.upper_bound = 2.0;
  FireflyOptimizer opt(config, sphere(), Rng(4));
  const FaResult result = opt.run();
  for (const double x : result.best_position) {
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, StrategyTest,
                         ::testing::Values(Strategy::kClassic, Strategy::kRankOrdered));

TEST(Complexity, ClassicComparisonsAreQuadratic) {
  // §V: the basic firefly algorithm is inherently O(n²) because each
  // firefly evaluates eq. (13) against every other.
  std::vector<double> ns, comps;
  for (const std::size_t n : {32UL, 64UL, 128UL, 256UL}) {
    FaConfig config;
    config.population = n;
    config.generations = 4;
    config.strategy = Strategy::kClassic;
    const FaResult r = FireflyOptimizer(config, sphere(), Rng(5)).run();
    ns.push_back(static_cast<double>(n));
    comps.push_back(static_cast<double>(r.comparisons));
  }
  const double slope = firefly::util::fit_loglog_slope(ns, comps);
  EXPECT_NEAR(slope, 2.0, 0.1);
}

TEST(Complexity, RankOrderedComparisonsAreNLogN) {
  std::vector<double> ns, comps;
  for (const std::size_t n : {32UL, 64UL, 128UL, 256UL, 512UL}) {
    FaConfig config;
    config.population = n;
    config.generations = 4;
    config.strategy = Strategy::kRankOrdered;
    const FaResult r = FireflyOptimizer(config, sphere(), Rng(6)).run();
    ns.push_back(static_cast<double>(n));
    comps.push_back(static_cast<double>(r.comparisons));
  }
  const double slope = firefly::util::fit_loglog_slope(ns, comps);
  EXPECT_GT(slope, 0.9);
  EXPECT_LT(slope, 1.45);  // n·log n, clearly sub-quadratic
}

TEST(Complexity, RankOrderedDoesFewerComparisonsAtScale) {
  FaConfig classic;
  classic.population = 256;
  classic.generations = 3;
  classic.strategy = Strategy::kClassic;
  FaConfig ordered = classic;
  ordered.strategy = Strategy::kRankOrdered;
  const auto c = FireflyOptimizer(classic, sphere(), Rng(7)).run();
  const auto o = FireflyOptimizer(ordered, sphere(), Rng(7)).run();
  EXPECT_LT(o.comparisons, c.comparisons / 4);
}

TEST(Complexity, RankOrderedQualityComparableOnSphere) {
  // The improvement must not wreck optimisation quality.
  FaConfig classic = base_config(Strategy::kClassic);
  FaConfig ordered = base_config(Strategy::kRankOrdered);
  const auto c = FireflyOptimizer(classic, sphere(), Rng(8)).run();
  const auto o = FireflyOptimizer(ordered, sphere(), Rng(8)).run();
  EXPECT_NEAR(o.best_value, c.best_value, 0.5);
}

TEST(Objectives, SphereOptimumAtOrigin) {
  const auto s = sphere();
  const std::vector<double> origin{0.0, 0.0, 0.0};
  const std::vector<double> off{1.0, -2.0, 0.5};
  EXPECT_DOUBLE_EQ(s(origin), 0.0);
  EXPECT_DOUBLE_EQ(s(off), -5.25);
}

TEST(FaResult, EvaluationAccounting) {
  FaConfig config = base_config(Strategy::kClassic);
  const FaResult r = FireflyOptimizer(config, sphere(), Rng(9)).run();
  // One initial sweep plus one per generation.
  EXPECT_EQ(r.evaluations, config.population * (config.generations + 1));
  EXPECT_EQ(r.best_by_generation.size(), config.generations);
}

}  // namespace
