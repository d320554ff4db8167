#include "graph/mst.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "graph/union_find.hpp"

namespace firefly::graph {

MstResult kruskal(const Graph& g, Orientation orientation) {
  MstResult result;
  const std::size_t n = g.vertex_count();
  if (n == 0) {
    result.spanning = true;
    return result;
  }
  std::vector<std::uint32_t> order(g.edge_count());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& edges = g.edges();
  if (orientation == Orientation::kMin) {
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (edges[a].weight != edges[b].weight) return edges[a].weight < edges[b].weight;
      return a < b;  // deterministic tie-break
    });
  } else {
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (edges[a].weight != edges[b].weight) return edges[a].weight > edges[b].weight;
      return a < b;
    });
  }
  UnionFind uf(n);
  for (const std::uint32_t idx : order) {
    const Edge& e = edges[idx];
    if (uf.unite(e.u, e.v)) {
      result.edges.push_back(e);
      result.total_weight += e.weight;
      if (result.edges.size() == n - 1) break;
    }
  }
  result.spanning = (result.edges.size() + 1 == n);
  return result;
}

MstResult prim(const Graph& g, Orientation orientation) {
  MstResult result;
  const std::size_t n = g.vertex_count();
  if (n == 0) {
    result.spanning = true;
    return result;
  }
  // For kMax we negate weights on the heap and restore on output.
  const double sign = orientation == Orientation::kMin ? 1.0 : -1.0;

  struct HeapEntry {
    double key;
    std::uint32_t edge_index;
    VertexId to;
  };
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) { return a.key > b.key; };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(cmp);

  std::vector<char> in_tree(n, 0);
  std::size_t in_tree_count = 0;

  auto add_vertex = [&](VertexId v) {
    in_tree[v] = 1;
    ++in_tree_count;
    for (const Neighbor& nb : g.neighbors(v)) {
      if (!in_tree[nb.to]) heap.push(HeapEntry{sign * nb.weight, nb.edge_index, nb.to});
    }
  };
  add_vertex(0);

  while (!heap.empty() && in_tree_count < n) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (in_tree[top.to]) continue;
    const Edge& e = g.edge(top.edge_index);
    result.edges.push_back(e);
    result.total_weight += e.weight;
    add_vertex(top.to);
  }
  result.spanning = (in_tree_count == n);
  return result;
}

}  // namespace firefly::graph
