// Critical-cycle extraction: *why* is the precision what it is?
//
// A^max is attained by some cycle of processors θ = p_0, ..., p_k = p_0
// whose average m̃s-weight equals A^max (§4.3).  That cycle is the
// bottleneck: every pair on it is synchronized exactly at the guarantee,
// and no improvement is possible without tightening the delay knowledge of
// the links its shift estimates derive from.  Operators use this the way
// they use a critical path: it names the links worth upgrading or probing
// harder.
//
// Extraction: under weights w(p,q) = A^max - m̃s(p,q) there are no negative
// cycles and the critical cycles have weight exactly 0; with Bellman-Ford
// potentials h, reduced weights w + h_u - h_v are >= 0 and vanish on every
// edge of a 0-weight cycle.  So the critical cycles are exactly the cycles
// of the "tight" subgraph, found by DFS.
#pragma once

#include <vector>

#include "graph/distance_matrix.hpp"

namespace cs {

/// A cycle p_0 -> p_1 -> ... -> p_{k-1} -> p_0 attaining the maximum mean
/// m̃s weight `a_max` in the finite part of `ms`, or empty if the instance
/// has no cycle (single processor).  `tolerance` absorbs float noise when
/// classifying edges as tight.
std::vector<NodeId> critical_cycle(const DistanceMatrix& ms, double a_max,
                                   double tolerance = 1e-9);

}  // namespace cs
