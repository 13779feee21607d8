// Johnson's all-pairs shortest paths: one Bellman–Ford pass to compute
// potentials, then Dijkstra from every node on the reweighted graph.
// Asymptotically better than Floyd–Warshall on the sparse network graphs
// GLOBAL ESTIMATES runs over (O(nm + n^2 log n) vs O(n^3)).
#pragma once

#include <optional>

#include "graph/distance_matrix.hpp"

namespace cs {

class EpochArena;

/// Returns std::nullopt iff the graph has a negative cycle.
std::optional<DistanceMatrix> johnson(const Digraph& g);

/// In-place variant for the epoch hot path: fills `out` (resized to the
/// node count) and draws every piece of scratch — potentials, the
/// reweighted CSR arrays, per-source distance rows — from `arena` instead
/// of the heap.  The caller owns the arena's lifetime; allocations from
/// this call are dead once it returns, so reset() is safe immediately
/// after.  Returns false iff the graph has a negative cycle (out is then
/// unspecified).  Produces bit-identical distances to johnson(): the
/// super-source Bellman–Ford is replaced by the equivalent all-zero
/// initialization, and Dijkstra distances are relaxation-order invariant.
bool johnson_into(const Digraph& g, DistanceMatrix& out, EpochArena& arena);

}  // namespace cs
