// Single-source shortest paths with negative edge weights: the textbook
// oracle for the corrections.
//
// Thm 4.6's corrections are distances under w(p,q) = Ã^max − m̃s(p,q), which
// are negative whenever a pair's shift estimate exceeds the optimum cycle
// mean — the common case.  SHIFTS computes them with one Dijkstra on
// Howard's potential (core/shifts.hpp); the property tests hold it to
// Bellman–Ford here, and the cycle-mean oracles use has_negative_cycle.
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

struct ShortestPaths {
  /// dist[v] = distance from source; +inf when unreachable.
  std::vector<double> dist;
  /// pred[v] = edge id of the last edge on a shortest path, or no value for
  /// the source / unreachable nodes.
  std::vector<std::optional<EdgeId>> pred;
};

/// Runs Bellman–Ford from `source`.  Returns std::nullopt iff a negative
/// cycle is reachable from the source.  `epsilon` is the relaxation
/// tolerance: improvements of at most `epsilon` are ignored, so cycles whose
/// weight is only negative by float noise (SHIFTS builds weights whose true
/// critical-cycle weight is exactly 0) neither loop the relaxation nor get
/// reported as negative.  Distances may exceed the exact optimum by at most
/// (path length)·epsilon; see DESIGN.md "Numeric tolerance contract".
std::optional<ShortestPaths> bellman_ford(const Digraph& g, NodeId source,
                                          double epsilon = 0.0);

/// True iff the graph contains a negative-weight cycle anywhere (adds a
/// virtual super-source).  `epsilon` guards against float noise: cycles with
/// weight >= -epsilon are not reported.
bool has_negative_cycle(const Digraph& g, double epsilon = 0.0);

}  // namespace cs
