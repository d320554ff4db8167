// mst.hpp — centralised reference spanning-tree algorithms.
//
// The distributed protocol's output is validated against these.  Because
// the paper's tree selects *heaviest* (strongest-PS) edges, both a minimum
// and a maximum orientation are provided; `Orientation::kMax` computes the
// maximum spanning tree the paper's Fig. 2 depicts ("by selecting heavy
// edge, devices make synchronization").
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace firefly::graph {

enum class Orientation { kMin, kMax };

struct MstResult {
  std::vector<Edge> edges;
  double total_weight{0.0};
  bool spanning{false};  ///< false when the input graph is disconnected
};

/// Kruskal: sort + union-find.  O(E log E).
[[nodiscard]] MstResult kruskal(const Graph& g, Orientation orientation = Orientation::kMin);

/// Prim with a binary heap.  O(E log V).  Starts from vertex 0.
[[nodiscard]] MstResult prim(const Graph& g, Orientation orientation = Orientation::kMin);

}  // namespace firefly::graph
