#include "oracles/dijkstra.hpp"

#include <cassert>
#include <queue>
#include <utility>

namespace cs {

ShortestPaths dijkstra(const Digraph& g, NodeId source) {
  assert(source < g.node_count());
  const std::size_t n = g.node_count();
  ShortestPaths sp;
  sp.dist.assign(n, kInfDist);
  sp.pred.assign(n, std::nullopt);
  sp.dist[source] = 0.0;

  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > sp.dist[v]) continue;  // stale entry
    for (EdgeId id : g.out_edges(v)) {
      const Edge& e = g.edge(id);
      assert(e.weight >= 0.0);
      const double cand = d + e.weight;
      if (cand < sp.dist[e.to]) {
        sp.dist[e.to] = cand;
        sp.pred[e.to] = id;
        heap.emplace(cand, e.to);
      }
    }
  }
  return sp;
}

}  // namespace cs
