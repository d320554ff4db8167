// graph.hpp — weighted undirected graphs.
//
// The paper models the network as G(V, E) with edge weight proportional to
// proximity-signal strength: *heavier = stronger = closer*.  The spanning
// structure the algorithm grows therefore selects the *maximum*-weight
// outgoing edge of each fragment — equivalently the minimum-RSSI-loss edge —
// so the reference algorithms below support both min and max orientation
// through a weight sign flip handled by the callers.
//
// Representation: flat edge list plus CSR-style adjacency built on demand.
// Vertices are dense 0..n-1 ids (device ids in the simulator).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace firefly::graph {

using VertexId = std::uint32_t;

struct Edge {
  VertexId u{0};
  VertexId v{0};
  double weight{0.0};

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
};

/// Half-edge as seen from one endpoint.
struct Neighbor {
  VertexId to{0};
  double weight{0.0};
  std::uint32_t edge_index{0};  ///< index into the graph's edge list
};

class Graph {
 public:
  explicit Graph(std::size_t vertex_count = 0) : vertex_count_(vertex_count) {}

  /// Add an undirected edge.  Self-loops are rejected (assert).
  /// Returns the edge index.
  std::uint32_t add_edge(VertexId u, VertexId v, double weight);

  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const Edge& edge(std::uint32_t index) const { return edges_[index]; }

  /// Neighbors of `v`.  Adjacency is (re)built lazily after mutation.
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId v) const;

  /// True if every vertex is reachable from vertex 0 (or graph is empty).
  [[nodiscard]] bool connected() const;

  /// Number of connected components.
  [[nodiscard]] std::size_t component_count() const;

 private:
  void build_adjacency() const;

  std::size_t vertex_count_;
  std::vector<Edge> edges_;
  mutable std::vector<Neighbor> adjacency_;
  mutable std::vector<std::uint32_t> offsets_;
  mutable bool adjacency_valid_ = false;
};

/// True when `edges` (a subset of some graph's edges over n vertices) form
/// a spanning tree: exactly n-1 edges, connected, acyclic.
[[nodiscard]] bool is_spanning_tree(std::size_t vertex_count, std::span<const Edge> edges);

}  // namespace firefly::graph
