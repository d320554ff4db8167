// Tests for log-normal shadowing models (src/phy/shadowing.hpp).
#include "phy/shadowing.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "test_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::util::Rng;
using firefly::util::Xoshiro256ss;

TEST(NoShadowing, AlwaysZero) {
  NoShadowing model;
  EXPECT_DOUBLE_EQ(model.sample(1, 2).value, 0.0);
}

TEST(PerLinkShadowing, RepeatedQueriesAgree) {
  const PerLinkShadowing model(10.0, Xoshiro256ss(3).next());
  const double first = model.sample(4, 9).value;
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(model.sample(4, 9).value, first);
}

TEST(PerLinkShadowing, SymmetricLinks) {
  PerLinkShadowing model(10.0, Xoshiro256ss(4).next());
  for (std::uint32_t a = 0; a < 8; ++a) {
    for (std::uint32_t b = a + 1; b < 8; ++b) {
      EXPECT_DOUBLE_EQ(model.sample(a, b).value, model.sample(b, a).value);
    }
  }
}

TEST(PerLinkShadowing, DistinctLinksIndependent) {
  PerLinkShadowing model(10.0, Xoshiro256ss(5).next());
  // 20 links, all draws distinct (collision probability ~0 for doubles).
  double prev = model.sample(0, 1).value;
  int distinct = 0;
  for (std::uint32_t i = 2; i < 22; ++i) {
    const double x = model.sample(0, i).value;
    if (x != prev) ++distinct;
    prev = x;
  }
  EXPECT_EQ(distinct, 20);
}

TEST(PerLinkShadowing, StatisticsAcrossLinks) {
  PerLinkShadowing model(6.0, Xoshiro256ss(6).next());
  double sum = 0.0, sum2 = 0.0;
  int n = 0;
  for (std::uint32_t a = 0; a < 200; ++a) {
    for (std::uint32_t b = a + 1; b < a + 6; ++b) {
      const double x = model.sample(a, b + 200).value;
      sum += x;
      sum2 += x * x;
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, 0.0, 0.6);
  EXPECT_NEAR(sum2 / n, 36.0, 4.0);
}

TEST(PerLinkShadowing, ResetRedraws) {
  PerLinkShadowing model(10.0, Xoshiro256ss(7).next());
  const double before = model.sample(1, 2).value;
  model.invalidate();
  const double after = model.sample(1, 2).value;
  EXPECT_NE(before, after);
}

TEST(PerLinkShadowing, QueryOrderDoesNotMatter) {
  // Each link is a pure function of (seed, link, epoch): forward, reverse
  // and shuffled query orders, and a second instance, all read the same
  // values, and an epoch bump moves them.
  constexpr std::uint32_t kDevices = 40;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  for (std::uint32_t a = 0; a < kDevices; ++a) {
    for (std::uint32_t b = a + 1; b < kDevices; ++b) links.emplace_back(a, b);
  }
  PerLinkShadowing model(10.0, std::uint64_t{8});
  const PerLinkShadowing twin(10.0, std::uint64_t{8});
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> forward;
  for (const auto& [a, b] : links) forward[{a, b}] = model.sample(a, b).value;
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    ASSERT_EQ(model.sample(it->second, it->first).value, forward[*it]);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shuffled = links;
  Rng rng(9);
  rng.shuffle(shuffled.begin(), shuffled.end());
  for (const auto& link : shuffled) {
    ASSERT_EQ(twin.sample(link.first, link.second).value, forward[link]);
    ASSERT_EQ(model.sample(link.first, link.second).value, forward[link]);
  }
  model.invalidate();
  std::size_t moved = 0;
  for (const auto& link : links) {
    moved += static_cast<std::size_t>(model.sample(link.first, link.second).value != forward[link]);
  }
  EXPECT_EQ(moved, links.size());
  // The twin keeps its epoch.
  const double first_link = forward[{0U, 1U}];
  EXPECT_EQ(twin.sample(0, 1).value, first_link);
}

}  // namespace
