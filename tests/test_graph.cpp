// Tests for the weighted graph container (src/graph/graph.hpp).
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace {

using namespace firefly::graph;

Graph triangle_plus_tail() {
  // 0-1-2 triangle with a tail 2-3.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  return g;
}

TEST(Graph, CountsVerticesAndEdges) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(g.vertex_count(), 4U);
  EXPECT_EQ(g.edge_count(), 4U);
}

TEST(Graph, AdjacencyListsBothDirections) {
  const Graph g = triangle_plus_tail();
  const auto n2 = g.neighbors(2);
  EXPECT_EQ(n2.size(), 3U);
  std::vector<VertexId> targets;
  for (const Neighbor& nb : n2) targets.push_back(nb.to);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<VertexId>{0, 1, 3}));
  EXPECT_EQ(g.neighbors(3).size(), 1U);
  EXPECT_EQ(g.neighbors(3)[0].to, 2U);
  EXPECT_DOUBLE_EQ(g.neighbors(3)[0].weight, 4.0);
}

TEST(Graph, EdgeIndicesInAdjacencyPointBack) {
  const Graph g = triangle_plus_tail();
  for (VertexId v = 0; v < 4; ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      const Edge& e = g.edge(nb.edge_index);
      EXPECT_TRUE((e.u == v && e.v == nb.to) || (e.v == v && e.u == nb.to));
      EXPECT_DOUBLE_EQ(e.weight, nb.weight);
    }
  }
}

TEST(Graph, AdjacencyRebuiltAfterMutation) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.neighbors(2).size(), 0U);
  g.add_edge(1, 2, 1.0);
  EXPECT_EQ(g.neighbors(2).size(), 1U);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.connected());
  EXPECT_EQ(g.component_count(), 3U);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.component_count(), 1U);
}

TEST(Graph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.component_count(), 0U);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.edge_count(), 0U);
}

TEST(IsSpanningTree, AcceptsValidTree) {
  const std::vector<Edge> tree{{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  EXPECT_TRUE(is_spanning_tree(4, tree));
}

TEST(IsSpanningTree, RejectsWrongEdgeCount) {
  const std::vector<Edge> too_few{{0, 1, 1.0}};
  EXPECT_FALSE(is_spanning_tree(4, too_few));
}

TEST(IsSpanningTree, RejectsCycle) {
  const std::vector<Edge> cycle{{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  EXPECT_FALSE(is_spanning_tree(4, cycle));  // 3 edges, 4 vertices, has a cycle
}

TEST(IsSpanningTree, RejectsDisconnected) {
  const std::vector<Edge> forest{{0, 1, 1.0}, {0, 1, 2.0}, {2, 3, 1.0}};
  EXPECT_FALSE(is_spanning_tree(4, forest));  // duplicate edge = cycle
}

TEST(IsSpanningTree, RejectsOutOfRangeVertices) {
  const std::vector<Edge> bad{{0, 7, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  EXPECT_FALSE(is_spanning_tree(4, bad));
}

TEST(IsSpanningTree, EmptyCases) {
  EXPECT_TRUE(is_spanning_tree(0, {}));
  EXPECT_TRUE(is_spanning_tree(1, {}));
  EXPECT_FALSE(is_spanning_tree(2, {}));
}

}  // namespace
