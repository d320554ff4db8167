// Tests for the disjoint-set forest (src/graph/union_find.hpp).
#include "graph/union_find.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace {

using firefly::graph::UnionFind;

TEST(UnionFind, StartsFullyDisjoint) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5U);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(uf.size_of(i), 1U);
  }
}

TEST(UnionFind, UniteMergesAndReportsCycle) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.set_count(), 2U);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_EQ(uf.set_count(), 1U);
  EXPECT_FALSE(uf.unite(0, 2));  // already together
}

TEST(UnionFind, UnionBySizeKeepsLargerRepresentative) {
  UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(0, 2);  // {0,1,2}
  uf.unite(3, 4);  // {3,4}
  const std::uint32_t big_root = uf.find(0);
  uf.unite(4, 2);
  // The larger set's representative survives (paper: the head comes from
  // the tree with the most nodes).
  EXPECT_EQ(uf.find(3), big_root);
  EXPECT_EQ(uf.size_of(3), 5U);
}

TEST(UnionFind, SizesAccumulate) {
  UnionFind uf(8);
  for (std::uint32_t i = 1; i < 8; ++i) uf.unite(0, i);
  EXPECT_EQ(uf.size_of(5), 8U);
  EXPECT_EQ(uf.set_count(), 1U);
}

TEST(UnionFind, RandomisedInvariants) {
  firefly::util::Rng rng(55);
  const std::size_t n = 500;
  UnionFind uf(n);
  std::size_t merges = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (a == b) continue;
    const bool merged = uf.unite(a, b);
    if (merged) ++merges;
    ASSERT_EQ(uf.find(a), uf.find(b));
  }
  // Every successful unite reduces the set count by exactly one.
  EXPECT_EQ(uf.set_count(), n - merges);
  // Sizes of distinct roots sum to n.
  std::size_t total = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (uf.find(v) == v) total += uf.size_of(v);
  }
  EXPECT_EQ(total, n);
}

TEST(UnionFind, FindIsIdempotent) {
  UnionFind uf(10);
  uf.unite(0, 5);
  uf.unite(5, 9);
  const auto root = uf.find(9);
  EXPECT_EQ(uf.find(9), root);
  EXPECT_EQ(uf.find(root), root);
}

}  // namespace
