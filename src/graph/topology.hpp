// Network topology generators.
//
// A Topology is the *undirected* layout of bidirectional links between
// processors; the simulator instantiates each link as a pair of directed
// channels, and the pipeline builds directed m̃ls edges per direction.
// Generators cover the shapes the experiments sweep: paths and rings (where
// cycle-mean structure is easy to reason about), stars/trees (no cycles
// beyond two-edge p->q->p ones), complete graphs (the Lundelius-Lynch
// setting), grids, and random graphs for WAN-like heterogeneity.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/digraph.hpp"

namespace cs {

struct Topology {
  std::size_t node_count{0};
  /// Unordered pairs (a, b), a < b, no duplicates.
  std::vector<std::pair<NodeId, NodeId>> links;

  std::size_t link_count() const { return links.size(); }

  /// True iff the undirected graph is connected (vacuously true for n <= 1).
  bool connected() const;

  /// Neighbor lists (undirected).
  std::vector<std::vector<NodeId>> adjacency() const;
};

// Each generator checks its arguments in every build and throws cs::Error
// naming the family and the size: rings need n >= 3, stars n >= 2, grids
// both sides >= 1.
Topology make_line(std::size_t n);
Topology make_ring(std::size_t n);
Topology make_star(std::size_t n);  ///< node 0 is the hub
Topology make_complete(std::size_t n);
Topology make_grid(std::size_t width, std::size_t height);

/// Circulant ring: node i links to i ± s (mod n) for each stride s.  With
/// strides {1, 2, 3} the graph is 6-connected — the chorded ring the
/// Byzantine quorum validation needs (connectivity > 2f; a bare cycle's
/// connectivity 2 cannot localize even one liar).  Needs n >= 3 and every
/// stride in [1, n); strides s and n - s give the same chords, which are
/// kept once.
Topology make_circulant(std::size_t n, std::span<const std::size_t> strides);

/// Uniform random spanning tree over n nodes (random attachment).
Topology make_random_tree(std::size_t n, Rng& rng);

/// G(n, p) conditioned on connectivity: a random tree backbone plus each
/// remaining pair independently with probability p (0 <= p <= 1).
Topology make_connected_gnp(std::size_t n, double p, Rng& rng);

/// WAN-like two-level topology: a backbone ring of `hubs` nodes, remaining
/// nodes attached to a random hub, plus a few random cross links.  Needs
/// 3 <= hubs <= n.
Topology make_wan(std::size_t n, std::size_t hubs, Rng& rng);

/// Parse by name for bench command lines: "line", "ring", "star",
/// "complete", "grid", "tree", "gnp", "wan".  Throws cs::Error on unknown
/// names.
Topology make_named(const std::string& name, std::size_t n, Rng& rng);

}  // namespace cs
