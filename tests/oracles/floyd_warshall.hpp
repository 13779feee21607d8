// Floyd–Warshall all-pairs shortest paths.
//
// The O(n^3) reference for GLOBAL ESTIMATES (Theorem 5.5): m̃s(p,q) is
// exactly the p→q distance under edge weights m̃ls.  The pipeline runs
// Johnson's algorithm (graph/johnson.hpp); Floyd–Warshall is the oracle it
// is tested against and the APSP arm of bench E7/E8.
#pragma once

#include <optional>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

/// Returns std::nullopt iff the graph has a negative cycle (detected by a
/// negative diagonal entry).
std::optional<DistanceMatrix> floyd_warshall(const Digraph& g);

}  // namespace cs
