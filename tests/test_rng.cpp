// Tests for the deterministic RNG stack (src/util/rng.hpp).
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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
    ASSERT_EQ(block.uniform(), scalar.uniform()) << "n=" << n;

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

TEST(Rng, FilteredBlockDrawEqualsFilteredFill) {
  // fill_unit_open_below keeps exactly the draws of fill_unit_open that
  // fall below their bound, in draw order with their positions, and leaves
  // the stream where fill_unit_open does.
  Rng bounds_rng(5);
  for (const std::size_t n : {0, 1, 2, 7, 1000}) {
    // Gated positions: draw i reads bound[pos[i]], a sparse ascending subset.
    std::vector<std::uint32_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = static_cast<std::uint32_t>(3 * i + i % 2);
    const std::size_t slots = 3 * n + 1;
    std::vector<float> drawn(slots);
    for (float& b : drawn) b = static_cast<float>(bounds_rng.uniform());
    const std::vector<float> mixed = drawn;
    const std::vector<float> all(slots, 2.0F);
    const std::vector<float> none(slots, 0.0F);
    for (const auto* bound : {&mixed, &all, &none}) {
      for (const bool gated : {false, true}) {
        Rng fused(91);
        Rng plain(91);
        std::vector<double> kept(n);
        std::vector<std::uint32_t> kept_pos(n);
        const std::size_t count = fused.fill_unit_open_below(
            bound->data(), gated ? pos.data() : nullptr, n, kept.data(), kept_pos.data());
        std::vector<double> u(n);
        plain.fill_unit_open(u.data(), n);
        std::size_t want = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t p = gated ? pos[i] : static_cast<std::uint32_t>(i);
          if (!(u[i] < static_cast<double>((*bound)[p]))) continue;
          ASSERT_LT(want, count) << "n=" << n << " gated=" << gated;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(kept[want]), std::bit_cast<std::uint64_t>(u[i]));
          EXPECT_EQ(kept_pos[want], p);
          ++want;
        }
        EXPECT_EQ(count, want) << "n=" << n << " gated=" << gated;
        if (bound == &all) {
          EXPECT_EQ(count, n);
        }
        if (bound == &none) {
          EXPECT_EQ(count, 0U);
        }
        EXPECT_EQ(fused.unit_open(), plain.unit_open()) << "n=" << n << " gated=" << gated;
      }
    }
  }
}

TEST(Rng, DropFusedBlockDrawEqualsTwoPassDraw) {
  // fill_unit_open_below with a drop stream equals the two passes it
  // replaces: n fill_bernoulli drops as a mask, then the fading draws kept
  // below their bound where the mask is clear.  Same survivors in draw
  // order, same positions, same fired-drop count, and both streams left
  // where the two passes leave them.
  Rng bounds_rng(6);
  for (const std::size_t n : {0, 1, 2, 7, 1000}) {
    std::vector<std::uint32_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = static_cast<std::uint32_t>(3 * i + i % 2);
    std::vector<float> bound(3 * n + 1);
    for (float& b : bound) b = static_cast<float>(bounds_rng.uniform());
    for (const double p : {0.0, 0.15, 1.0}) {
      for (const bool gated : {false, true}) {
        Rng fused(92);
        Rng fused_drops(93);
        std::vector<double> kept(n);
        std::vector<std::uint32_t> kept_pos(n);
        std::size_t fired = 12345;
        const std::size_t count =
            fused.fill_unit_open_below(bound.data(), gated ? pos.data() : nullptr, n, kept.data(),
                                       kept_pos.data(), fused_drops, p, fired);

        Rng plain(92);
        Rng plain_drops(93);
        std::vector<std::uint8_t> lost(n);
        plain_drops.fill_bernoulli(lost.data(), n, p);
        std::vector<double> u(n);
        plain.fill_unit_open(u.data(), n);
        std::size_t want = 0;
        std::size_t want_fired = 0;
        for (std::size_t i = 0; i < n; ++i) {
          want_fired += lost[i];
          const std::uint32_t at = gated ? pos[i] : static_cast<std::uint32_t>(i);
          if (!(u[i] < static_cast<double>(bound[at])) || lost[i] != 0) continue;
          ASSERT_LT(want, count) << "n=" << n << " p=" << p << " gated=" << gated;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(kept[want]), std::bit_cast<std::uint64_t>(u[i]));
          EXPECT_EQ(kept_pos[want], at);
          ++want;
        }
        EXPECT_EQ(count, want) << "n=" << n << " p=" << p << " gated=" << gated;
        EXPECT_EQ(fired, want_fired) << "n=" << n << " p=" << p << " gated=" << gated;
        if (p == 1.0) {
          EXPECT_EQ(count, 0U);
          EXPECT_EQ(fired, n);
        }
        if (p == 0.0) {
          // No drop fires: the drop-free draw's survivors.
          Rng undropped(92);
          std::vector<double> kept2(n);
          std::vector<std::uint32_t> kept_pos2(n);
          EXPECT_EQ(undropped.fill_unit_open_below(bound.data(), gated ? pos.data() : nullptr, n,
                                                   kept2.data(), kept_pos2.data()),
                    count);
        }
        EXPECT_EQ(fused.unit_open(), plain.unit_open()) << "n=" << n << " p=" << p;
        EXPECT_EQ(fused_drops.unit_open(), plain_drops.unit_open()) << "n=" << n << " p=" << p;
      }
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
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  EXPECT_EQ(factory.master_seed(), 123U);
}

}  // namespace
