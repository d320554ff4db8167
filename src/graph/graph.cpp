#include "graph/graph.hpp"

#include <cassert>

#include "graph/union_find.hpp"

namespace firefly::graph {

std::uint32_t Graph::add_edge(VertexId u, VertexId v, double weight) {
  assert(u != v && "self-loops are not allowed");
  assert(u < vertex_count_ && v < vertex_count_);
  const auto index = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  adjacency_valid_ = false;
  return index;
}

void Graph::build_adjacency() const {
  offsets_.assign(vertex_count_ + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adjacency_.assign(2 * edges_.size(), Neighbor{});
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t idx = 0; idx < edges_.size(); ++idx) {
    const Edge& e = edges_[idx];
    adjacency_[cursor[e.u]++] = Neighbor{e.v, e.weight, idx};
    adjacency_[cursor[e.v]++] = Neighbor{e.u, e.weight, idx};
  }
  adjacency_valid_ = true;
}

std::span<const Neighbor> Graph::neighbors(VertexId v) const {
  assert(v < vertex_count_);
  if (!adjacency_valid_) build_adjacency();
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

bool Graph::connected() const { return component_count() <= 1; }

std::size_t Graph::component_count() const {
  if (vertex_count_ == 0) return 0;
  UnionFind uf(vertex_count_);
  for (const Edge& e : edges_) uf.unite(e.u, e.v);
  return uf.set_count();
}

bool is_spanning_tree(std::size_t vertex_count, std::span<const Edge> edges) {
  if (vertex_count == 0) return edges.empty();
  if (edges.size() != vertex_count - 1) return false;
  UnionFind uf(vertex_count);
  for (const Edge& e : edges) {
    if (e.u >= vertex_count || e.v >= vertex_count) return false;
    if (!uf.unite(e.u, e.v)) return false;  // cycle
  }
  return uf.set_count() == 1;
}

}  // namespace firefly::graph
