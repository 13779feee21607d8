#include "oracles/bellman_ford.hpp"

#include <cassert>

namespace cs {
namespace {

/// One relaxation sweep; returns true if any distance improved by more than
/// `epsilon`.
bool relax_all(const Digraph& g, std::vector<double>& dist,
               std::vector<std::optional<EdgeId>>& pred, double epsilon) {
  bool changed = false;
  for (EdgeId id = 0; id < g.edge_count(); ++id) {
    const Edge& e = g.edge(id);
    if (dist[e.from] == kInfDist) continue;
    const double cand = dist[e.from] + e.weight;
    if (cand < dist[e.to] - epsilon) {
      dist[e.to] = cand;
      pred[e.to] = id;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

std::optional<ShortestPaths> bellman_ford(const Digraph& g, NodeId source,
                                          double epsilon) {
  assert(source < g.node_count());
  assert(epsilon >= 0.0);
  const std::size_t n = g.node_count();
  ShortestPaths sp;
  sp.dist.assign(n, kInfDist);
  sp.pred.assign(n, std::nullopt);
  sp.dist[source] = 0.0;

  bool changed = true;
  for (std::size_t round = 0; round + 1 < n && changed; ++round)
    changed = relax_all(g, sp.dist, sp.pred, epsilon);

  // If an n-th sweep still relaxes, a negative cycle is reachable.
  if (changed && relax_all(g, sp.dist, sp.pred, epsilon)) return std::nullopt;
  return sp;
}

bool has_negative_cycle(const Digraph& g, double epsilon) {
  const std::size_t n = g.node_count();
  if (n == 0) return false;
  // Virtual super-source: start every node at distance 0.
  std::vector<double> dist(n, 0.0);
  std::vector<std::optional<EdgeId>> pred(n, std::nullopt);
  bool changed = true;
  for (std::size_t round = 0; round < n && changed; ++round)
    changed = relax_all(g, dist, pred, epsilon);
  return changed;
}

}  // namespace cs
