#include "graph/digraph.hpp"

#include <gtest/gtest.h>

namespace cs {
namespace {

TEST(Digraph, ConstructionAndCounts) {
  Digraph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(g.node_count(), 4u);
}

TEST(Digraph, EdgesAndAdjacency) {
  Digraph g(3);
  const EdgeId e0 = g.add_edge(0, 1, 2.5);
  const EdgeId e1 = g.add_edge(0, 2, -1.0);
  g.add_edge(1, 2, 0.0);

  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.edge(e0).to, 1u);
  EXPECT_DOUBLE_EQ(g.edge(e1).weight, -1.0);
  ASSERT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.out_edges(2).size(), 0u);
}

TEST(Digraph, SetWeight) {
  Digraph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_weight(e, 7.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 7.0);
}

TEST(Digraph, ParallelEdgesAllowed) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.out_edges(0).size(), 2u);
}

TEST(Digraph, SelfLoop) {
  Digraph g(1);
  g.add_edge(0, 0, -3.0);
  EXPECT_EQ(g.out_edges(0).size(), 1u);
}

}  // namespace
}  // namespace cs
