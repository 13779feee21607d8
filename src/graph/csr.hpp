// Compressed-sparse-row adjacency for the closure kernels.
//
// johnson_into (graph/johnson.hpp) and IncrementalApsp
// (graph/incremental_apsp.hpp) build their reweighted adjacency as flat
// arrays carved from an EpochArena — arcs grouped by source, indexed by a
// row-pointer array — and run Dijkstra over a non-owning view of them.
// dijkstra_csr equals the Digraph Dijkstra oracle (tests/oracles) exactly,
// which the property test tests/graph/csr_test.cpp enforces on golden
// models and random instances.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

/// Non-owning flat adjacency: row_ptr has n+1 entries; arc k of node v is
/// head[row_ptr[v] + k] with weight weight[row_ptr[v] + k].
struct CsrView {
  std::span<const std::uint32_t> row_ptr;
  std::span<const NodeId> head;
  std::span<const double> weight;

  std::size_t node_count() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  std::size_t arc_count() const { return head.size(); }
};

/// Dijkstra distances (non-negative weights) into `dist` (size n, filled
/// with kInfDist/0).  `heap` is reusable scratch.  Exactly equal to the
/// oracle's distances: each settled value is the exact float min over its
/// candidate predecessor sums, independent of tie order.
void dijkstra_csr(const CsrView& g, NodeId source, std::span<double> dist,
                  std::vector<std::pair<double, NodeId>>& heap);

}  // namespace cs
