#include "oracles/adversary.hpp"

#include <cassert>

#include "oracles/dijkstra.hpp"

namespace cs {

std::vector<Duration> adversarial_shifts(const Digraph& mls_actual,
                                         NodeId anchor, double gamma) {
  assert(gamma > 1.0);
  // mls weights are non-negative (0 is always locally admissible), so
  // Dijkstra applies.
  const ShortestPaths sp = dijkstra(mls_actual, anchor);
  std::vector<Duration> shifts(mls_actual.node_count(), Duration{0.0});
  for (NodeId v = 0; v < mls_actual.node_count(); ++v)
    if (sp.dist[v] != kInfDist) shifts[v] = Duration{sp.dist[v] / gamma};
  return shifts;
}

}  // namespace cs
