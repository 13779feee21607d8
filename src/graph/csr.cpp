#include "graph/csr.hpp"

#include <algorithm>
#include <cassert>

namespace cs {

void dijkstra_csr(const CsrView& g, NodeId source, std::span<double> dist,
                  std::vector<std::pair<double, NodeId>>& heap) {
  assert(dist.size() == g.node_count());
  for (double& d : dist) d = kInfDist;
  dist[source] = 0.0;
  heap.clear();
  heap.emplace_back(0.0, source);

  // Lazy-deletion binary heap; min on (distance, node) like the
  // priority_queue the Digraph dijkstra uses.  Distances are tie-order
  // independent either way (exact min over settled predecessor sums).
  const auto cmp = [](const std::pair<double, NodeId>& a,
                      const std::pair<double, NodeId>& b) { return a > b; };
  while (!heap.empty()) {
    const auto [d, v] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.pop_back();
    if (d > dist[v]) continue;  // stale entry
    for (std::uint32_t a = g.row_ptr[v]; a < g.row_ptr[v + 1]; ++a) {
      assert(g.weight[a] >= 0.0);
      const double cand = d + g.weight[a];
      const NodeId to = g.head[a];
      if (cand < dist[to]) {
        dist[to] = cand;
        heap.emplace_back(cand, to);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
}

}  // namespace cs
