// Maximum mean cycle of a dense weighted digraph: the SHIFTS kernel.
//
// The optimal achievable precision on an instance is exactly
//
//   Ã^max = max over cycles θ of ( Σ m̃s-weights on θ / |θ| )     (§4.4)
//
// The paper prescribes Karp's O(nm) characterization [Karp, Disc. Math. 23
// (1978)].  SHIFTS runs Howard's policy iteration instead, whose converged
// value vector doubles as the potential for the corrections
// (docs/THEORY.md).  Karp, a binary-search (Lawler-style) alternative, an
// edge-list Howard and an exhaustive enumerator are test oracles and bench
// E7/E8 ablation arms; they live in tests/oracles, not in the library.
//
// A finiteness component's m̃s entries form a COMPLETE weighted graph, so
// the kernel runs straight off a row-major k x k weight matrix (diagonal
// ignored) with all scratch in an EpochArena.  The greedy initialization
// and the two-stage improvement scan successors in ascending index
// skipping the diagonal — exactly the j-ascending edge order of a complete
// subgraph built row by row — so the edge-list oracle reproduces its
// policies bit for bit.
#pragma once

#include <span>

#include "common/metrics.hpp"
#include "graph/digraph.hpp"

namespace cs {

class EpochArena;

/// Sentinel successor for nodes that carry no policy edge (trivial SCCs).
inline constexpr NodeId kNoPolicyEdge = static_cast<NodeId>(-1);

struct HowardDenseResult {
  double mean{0.0};

  /// Value (bias) vector of the final policy, k entries in the caller's
  /// arena (valid until its next reset()).  On convergence it is a
  /// feasible potential: w[i*k + j] + value[j] - value[i] <= mean + tol for
  /// every arc, tol the 1e-12 improvement threshold (docs/THEORY.md).
  std::span<const double> value;

  std::size_t iterations{0};
  bool converged{true};
};

/// Howard's policy iteration on the complete graph on k >= 2 nodes with arc
/// weights w[i*k + j].  `warm` is empty or k entries of seed successors
/// (kNoPolicyEdge = greedy init for that node); `policy` receives the final
/// successor per node (k entries).  Mirrors the edge-list oracle
/// max_cycle_mean_howard_warm(complete graph) exactly, including the
/// "cycle_mean.howard_*" counters and iteration series.
HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics);

}  // namespace cs
