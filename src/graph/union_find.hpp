// union_find.hpp — disjoint-set forest with union by size + path halving.
//
// Used by the reference MST algorithms, by spanning-tree validation, and by
// the ST protocol's fragment bookkeeping ("merge S_u into S_v, choosing the
// head from the tree with the highest number of nodes" — Algorithm 1 line
// 12 needs exactly union-by-size semantics).
#pragma once

#include <cstdint>
#include <vector>

namespace firefly::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative of x's set (with path halving).
  [[nodiscard]] std::uint32_t find(std::uint32_t x);

  /// Merge the sets of a and b.  Returns false if already in one set.
  /// The larger set's representative wins (union by size), matching the
  /// paper's "head from the highest number of node's tree".
  bool unite(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] std::size_t set_count() const { return set_count_; }
  [[nodiscard]] std::size_t size_of(std::uint32_t x) { return sizes_[find(x)]; }

 private:
  std::vector<std::uint32_t> parents_;
  std::vector<std::uint32_t> sizes_;
  std::size_t set_count_;
};

}  // namespace firefly::graph
