// Dijkstra single-source shortest paths (non-negative weights) on a
// Digraph: the reference dijkstra_csr (graph/csr.hpp) is held to exactly,
// and the Lemma 5.3 adversary's distances.
#pragma once

#include "graph/digraph.hpp"
#include "oracles/bellman_ford.hpp"

namespace cs {

/// Precondition: all edge weights >= 0 (asserted in debug builds).
ShortestPaths dijkstra(const Digraph& g, NodeId source);

}  // namespace cs
