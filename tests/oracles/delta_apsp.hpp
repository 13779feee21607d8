// The branchy min-plus row update.
//
// The reference for IncrementalApsp's weight-decrease step: the loop it ran
// before its rows became a branch-free select, kept as it was.  Lowering
// edge u -> v to weight w sets every D(i, j) to
// min(D(i, j), D(i, u) + w + D(v, j)); the library must leave every entry
// bit for bit as this loop does.
#pragma once

#include "graph/distance_matrix.hpp"

namespace cs {

/// Lowers edge `from` -> `to` to weight `w` in the closure `d`, in place,
/// skipping +inf heads and tails.  The caller has checked that the edge
/// closes no negative cycle: D(to, from) = +inf or w + D(to, from) >= 0.
void reference_lower_edge(DistanceMatrix& d, NodeId from, NodeId to,
                          double w);

}  // namespace cs
