// Weighted directed graph with a flat, CSR-backed adjacency index.
//
// Used in two roles by the pipeline:
//   * the *network graph* G = (V, E) whose edges carry m̃ls weights
//     (GLOBAL ESTIMATES, Theorem 5.5), and
//   * the *complete shift graph* on processors whose edges carry m̃s weights
//     (SHIFTS, Theorem 4.6, and Karp's cycle-mean computation).
//
// Edge weights are finite doubles; "+inf" weights in the theory are
// represented by *absence* of the edge, which keeps every algorithm here
// free of extended-real arithmetic.
//
// Storage is structure-of-arrays: edges live in one flat vector (id order =
// insertion order), and the per-node adjacency is a compressed-sparse-row
// index (row pointers + one flat id array) built lazily on first query and
// invalidated by mutation.  A stable counting sort keeps each node's edge
// ids in insertion order, so out_edges() returns exactly the sequence the
// old per-node vectors held — order-sensitive consumers (Tarjan's DFS,
// Howard's tie-breaks) see identical traversals.  set_weight() does not
// touch the index.
//
// Thread safety: the lazy index build mutates shared state; call freeze()
// before handing one graph to several threads for read-only use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cs {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

struct Edge {
  NodeId from;
  NodeId to;
  double weight;
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count);

  NodeId add_node();
  EdgeId add_edge(NodeId from, NodeId to, double weight);

  std::size_t node_count() const { return nodes_; }
  std::size_t edge_count() const { return edges_.size(); }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  void set_weight(EdgeId e, double w) { edges_[e].weight = w; }

  std::span<const Edge> edges() const { return edges_; }
  std::span<const EdgeId> out_edges(NodeId v) const {
    if (!index_valid_) build_index();
    return {out_ids_.data() + out_ptr_[v], out_ptr_[v + 1] - out_ptr_[v]};
  }

  /// Builds the adjacency index now (no-op if current).  Required before
  /// sharing one graph across threads for concurrent reads.
  void freeze() const {
    if (!index_valid_) build_index();
  }

 private:
  void build_index() const;

  std::vector<Edge> edges_;
  std::size_t nodes_{0};

  // Lazy CSR adjacency: out_ptr_ has nodes_ + 1 entries once valid;
  // out_ids_ holds edge ids grouped by source, insertion order per node.
  mutable std::vector<std::uint32_t> out_ptr_;
  mutable std::vector<EdgeId> out_ids_;
  mutable bool index_valid_{false};
};

}  // namespace cs
