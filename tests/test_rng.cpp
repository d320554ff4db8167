// Tests for the deterministic RNG stack (src/util/rng.hpp).
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace {

using firefly::util::Rng;
using firefly::util::RngFactory;
using firefly::util::SplitMix64;
using firefly::util::derive_seed;

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 a(0);
  SplitMix64 b(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicReplay) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
    ASSERT_DOUBLE_EQ(a.normal(), b.normal());
    ASSERT_EQ(a.uniform_index(97), b.uniform_index(97));
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(Rng, UniformIndexIsUnbiased) {
  Rng rng(13);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / static_cast<double>(kBuckets),
                5.0 * std::sqrt(n / static_cast<double>(kBuckets)));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.15);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(31);
  for (const double lambda : {0.5, 5.0, 50.0, 200.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, 0.05 * lambda + 0.05) << "lambda " << lambda;
  }
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0U);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(41);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, BlockFillsEqualScalarSequences) {
  // fill_unit_open / fill_bernoulli hold the engine state in locals for the
  // block; each must write exactly what n scalar calls return and leave the
  // stream where they would, so scalar draws interleave seamlessly.
  Rng block(77);
  Rng scalar(77);
  for (const std::size_t n : {0, 1, 2, 3, 7, 1000}) {
    std::vector<double> u(n);
    block.fill_unit_open(u.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(u[i], scalar.unit_open()) << "n=" << n;
    ASSERT_EQ(block.bits(), scalar.bits()) << "n=" << n;

    for (const double p : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<std::uint8_t> b(n, 2);
      block.fill_bernoulli(b.data(), n, p);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(b[i], scalar.bernoulli(p) ? 1 : 0) << "n=" << n << " p=" << p;
      }
      ASSERT_EQ(block.uniform(), scalar.uniform()) << "n=" << n << " p=" << p;
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v.begin(), v.end());
  EXPECT_NE(v, copy);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(DeriveSeed, NameAndIndexIndependence) {
  const std::uint64_t master = 99;
  std::set<std::uint64_t> seeds;
  for (const char* name : {"a", "b", "phy.fading", "phy.shadowing"}) {
    for (std::uint64_t index = 0; index < 8; ++index) {
      seeds.insert(derive_seed(master, name, index));
    }
  }
  EXPECT_EQ(seeds.size(), 32U);  // all distinct
}

TEST(DeriveSeed, StableAcrossCalls) {
  EXPECT_EQ(derive_seed(1, "stream", 2), derive_seed(1, "stream", 2));
  EXPECT_NE(derive_seed(1, "stream", 2), derive_seed(2, "stream", 2));
}

TEST(RngFactory, MakesIndependentStreams) {
  RngFactory factory(123);
  Rng a = factory.make("alpha");
  Rng b = factory.make("beta");
  // Streams should not be correlated: compare a few dozen draws.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  EXPECT_EQ(factory.master_seed(), 123U);
}

}  // namespace
