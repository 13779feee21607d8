// Shortest-path predecessor chains: the `pred` fields of Bellman-Ford and
// Dijkstra must reconstruct paths whose weights equal the distances.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/bellman_ford.hpp"
#include "oracles/dijkstra.hpp"

namespace cs {
namespace {

/// Walks pred[] from `target` back to `source`; returns the path weight,
/// or nullopt if the chain is broken.
std::optional<double> walk_back(const Digraph& g, const ShortestPaths& sp,
                                NodeId source, NodeId target) {
  double total = 0.0;
  NodeId cur = target;
  std::size_t hops = 0;
  while (cur != source) {
    if (!sp.pred[cur] || ++hops > g.node_count()) return std::nullopt;
    const Edge& e = g.edge(*sp.pred[cur]);
    if (e.to != cur) return std::nullopt;
    total += e.weight;
    cur = e.from;
  }
  return total;
}

TEST(PathReconstruction, BellmanFordChainsAreConsistent) {
  Rng rng(91);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 3 + rng.uniform_int(8);
    std::vector<double> h(n);
    for (auto& x : h) x = rng.uniform(-5.0, 5.0);
    Digraph g(n);
    for (std::size_t e = 0; e < 4 * n; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      const auto v = static_cast<NodeId>(rng.uniform_int(n));
      if (u == v) continue;
      g.add_edge(u, v, rng.uniform(0.0, 3.0) + h[v] - h[u]);
    }
    const auto sp = bellman_ford(g, 0);
    ASSERT_TRUE(sp.has_value());
    for (NodeId v = 1; v < n; ++v) {
      if (sp->dist[v] == kInfDist) {
        EXPECT_FALSE(sp->pred[v].has_value());
        continue;
      }
      const auto w = walk_back(g, *sp, 0, v);
      ASSERT_TRUE(w.has_value()) << "broken chain at " << v;
      EXPECT_NEAR(*w, sp->dist[v], 1e-9);
    }
  }
}

TEST(PathReconstruction, DijkstraChainsAreConsistent) {
  Rng rng(92);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 3 + rng.uniform_int(8);
    Digraph g(n);
    for (std::size_t e = 0; e < 4 * n; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      const auto v = static_cast<NodeId>(rng.uniform_int(n));
      if (u == v) continue;
      // Include zero-weight edges: a classic tie-handling trap.
      g.add_edge(u, v, rng.uniform01() < 0.2 ? 0.0 : rng.uniform(0.0, 3.0));
    }
    const ShortestPaths sp = dijkstra(g, 0);
    for (NodeId v = 1; v < n; ++v) {
      if (sp.dist[v] == kInfDist) continue;
      const auto w = walk_back(g, sp, 0, v);
      ASSERT_TRUE(w.has_value());
      EXPECT_NEAR(*w, sp.dist[v], 1e-12);
    }
  }
}

TEST(PathReconstruction, SourcePredIsEmpty) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  const auto bf = bellman_ford(g, 0);
  EXPECT_FALSE(bf->pred[0].has_value());
  const auto dj = dijkstra(g, 0);
  EXPECT_FALSE(dj.pred[0].has_value());
}

}  // namespace
}  // namespace cs
