// Bellman–Ford, Dijkstra, Floyd–Warshall and Johnson, cross-validated.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/johnson.hpp"
#include "oracles/bellman_ford.hpp"
#include "oracles/dijkstra.hpp"
#include "oracles/floyd_warshall.hpp"

namespace cs {
namespace {

Digraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, with 0->2->3 cheaper.
  Digraph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 3, 5.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 2.0);
  return g;
}

TEST(BellmanFord, SimplePaths) {
  const auto sp = bellman_ford(diamond(), 0);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(sp->dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp->dist[1], 5.0);
  EXPECT_DOUBLE_EQ(sp->dist[2], 1.0);
  EXPECT_DOUBLE_EQ(sp->dist[3], 3.0);
}

TEST(BellmanFord, NegativeWeightsNoCycle) {
  Digraph g(3);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 6.0);
  g.add_edge(1, 2, -3.0);
  const auto sp = bellman_ford(g, 0);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(sp->dist[2], 1.0);
}

TEST(BellmanFord, Unreachable) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  const auto sp = bellman_ford(g, 0);
  ASSERT_TRUE(sp.has_value());
  EXPECT_EQ(sp->dist[2], kInfDist);
  EXPECT_FALSE(sp->pred[2].has_value());
}

TEST(BellmanFord, DetectsReachableNegativeCycle) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 1, 1.0);
  EXPECT_FALSE(bellman_ford(g, 0).has_value());
}

TEST(BellmanFord, IgnoresUnreachableNegativeCycle) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, -2.0);
  g.add_edge(3, 2, 1.0);
  EXPECT_TRUE(bellman_ford(g, 0).has_value());
  EXPECT_TRUE(has_negative_cycle(g));
}

TEST(HasNegativeCycle, ZeroCycleIsNotNegative) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, -1.0);
  EXPECT_FALSE(has_negative_cycle(g));
}

TEST(BellmanFord, EpsilonToleratesFloatNoiseCycle) {
  // Regression: relax_all used to be called with a hard-coded epsilon of
  // 0.0, so a cycle of weight -1 ulp — pure float rounding where the theory
  // guarantees weight exactly 0 (SHIFTS' critical cycle) — was reported as
  // a negative cycle.  The plumbed-through tolerance absorbs it.
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 0.5);
  g.add_edge(2, 1, -0.5 - 1e-15);  // "zero" cycle off by float noise
  EXPECT_FALSE(bellman_ford(g, 0).has_value());  // exact mode still rejects
  const auto sp = bellman_ford(g, 0, 1e-12);
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(sp->dist[1], 1.0, 1e-11);
  EXPECT_NEAR(sp->dist[2], 1.5, 1e-11);
}

TEST(BellmanFord, EpsilonStillDetectsDecisivelyNegativeCycle) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, -1.001);
  EXPECT_FALSE(bellman_ford(g, 0, 1e-9).has_value());
}

TEST(Dijkstra, MatchesBellmanFordOnNonNegative) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    Digraph g(8);
    for (int e = 0; e < 20; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(8));
      const auto v = static_cast<NodeId>(rng.uniform_int(8));
      if (u == v) continue;
      g.add_edge(u, v, rng.uniform(0.0, 10.0));
    }
    const auto bf = bellman_ford(g, 0);
    const ShortestPaths dj = dijkstra(g, 0);
    ASSERT_TRUE(bf.has_value());
    for (NodeId v = 0; v < 8; ++v) {
      if (bf->dist[v] == kInfDist) {
        EXPECT_EQ(dj.dist[v], kInfDist) << "node " << v;
      } else {
        EXPECT_NEAR(bf->dist[v], dj.dist[v], 1e-12) << "node " << v;
      }
    }
  }
}

TEST(FloydWarshall, SmallGraph) {
  const auto m = floyd_warshall(diamond());
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->at(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(m->at(1, 3), 5.0);
  EXPECT_EQ(m->at(3, 0), kInfDist);
  EXPECT_DOUBLE_EQ(m->at(2, 2), 0.0);
}

TEST(FloydWarshall, DetectsNegativeCycle) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, -2.0);
  EXPECT_FALSE(floyd_warshall(g).has_value());
}

TEST(Johnson, MatchesFloydWarshallWithNegativeWeights) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    // Build weights from node potentials plus a non-negative part; such
    // graphs never contain negative cycles but have many negative edges.
    const std::size_t n = 3 + rng.uniform_int(7);
    std::vector<double> h(n);
    for (auto& x : h) x = rng.uniform(-10.0, 10.0);
    Digraph g(n);
    const std::size_t edges = n * 3;
    for (std::size_t e = 0; e < edges; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      const auto v = static_cast<NodeId>(rng.uniform_int(n));
      if (u == v) continue;
      g.add_edge(u, v, rng.uniform(0.0, 5.0) + h[v] - h[u]);
    }
    const auto fw = floyd_warshall(g);
    const auto jo = johnson(g);
    ASSERT_TRUE(fw.has_value());
    ASSERT_TRUE(jo.has_value());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (fw->at(i, j) == kInfDist) {
          EXPECT_EQ(jo->at(i, j), kInfDist);
        } else {
          EXPECT_NEAR(fw->at(i, j), jo->at(i, j), 1e-9);
        }
      }
  }
}

TEST(Johnson, DetectsNegativeCycle) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -5.0);
  g.add_edge(2, 0, 1.0);
  EXPECT_FALSE(johnson(g).has_value());
}

}  // namespace
}  // namespace cs
