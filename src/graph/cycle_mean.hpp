// Maximum (and minimum) mean cycle of a weighted digraph.
//
// This is the computational heart of SHIFTS: the optimal achievable
// precision on an instance is exactly
//
//   Ã^max = max over cycles θ of ( Σ m̃s-weights on θ / |θ| )     (§4.4)
//
// The paper prescribes Karp's O(nm) characterization [Karp, Disc. Math. 23
// (1978)].  SHIFTS runs Howard's policy iteration (the dense kernel below),
// whose converged value vector doubles as the potential for the
// corrections (docs/THEORY.md).  Karp, a binary-search (Lawler-style)
// alternative and an exhaustive enumerator remain as test oracles and
// bench E7/E8 ablation arms.
#pragma once

#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// Maximum cycle mean over all directed cycles; std::nullopt if acyclic.
/// Decomposes by SCC internally, so the graph need not be strongly
/// connected.  Exact up to float rounding.
std::optional<double> max_cycle_mean_karp(const Digraph& g);

/// Minimum cycle mean, by negation.
std::optional<double> min_cycle_mean_karp(const Digraph& g);

/// Binary search on mu using positive-cycle detection: mu* is the largest mu
/// such that weights (w - mu) still admit a non-negative cycle.  Converges
/// to `tolerance`; ablation comparator for Karp (bench E8).
std::optional<double> max_cycle_mean_bsearch(const Digraph& g,
                                             double tolerance = 1e-9);

/// Howard's policy iteration (max-plus spectral algorithm) — the fastest
/// known cycle-mean algorithm in practice [Dasdan's experimental studies],
/// exact like Karp.  Second ablation arm of bench E8.  Throws cs::Error if
/// policy iteration exits on its iteration backstop without converging (an
/// unconverged mean must never silently reach SHIFTS); use the warm-start
/// API below to observe the event through metrics instead.
std::optional<double> max_cycle_mean_howard(const Digraph& g);

/// Sentinel successor for nodes that carry no policy edge (trivial SCCs).
inline constexpr NodeId kNoPolicyEdge = static_cast<NodeId>(-1);

struct HowardResult {
  /// Maximum cycle mean; std::nullopt if the graph is acyclic.
  std::optional<double> mean;

  /// Final policy: chosen successor node per node, kNoPolicyEdge where the
  /// node has no internal out-edge.  Feed back as `warm_policy` on the next
  /// epoch — between consecutive epochs the optimal policy rarely moves, so
  /// the warm-started iteration converges in one or two rounds.
  std::vector<NodeId> policy;

  /// Policy-iteration rounds, summed over SCCs.
  std::size_t iterations{0};

  /// False iff some SCC exhausted its iteration backstop; the mean may then
  /// be below the true maximum.  Reported to `metrics` under
  /// "cycle_mean.howard_backstop_exits".
  bool converged{true};
};

/// Howard's iteration with an optional warm-start policy from a previous,
/// similar graph (nullptr or size-mismatched entries fall back to the greedy
/// initial policy per node) and optional instrumentation.  Counters:
/// "cycle_mean.howard_iterations", "cycle_mean.howard_warm_starts",
/// "cycle_mean.howard_backstop_exits".
HowardResult max_cycle_mean_howard_warm(
    const Digraph& g, const std::vector<NodeId>* warm_policy = nullptr,
    Metrics* metrics = nullptr);

/// Exhaustive enumeration of simple cycles (test oracle; exponential, keep
/// node_count small).
std::optional<double> max_cycle_mean_brute(const Digraph& g);

class EpochArena;

// ---------------------------------------------------------------------------
// Dense kernel for SHIFTS (core/shifts.cpp).
//
// A finiteness component's m̃s entries form a COMPLETE weighted graph, so
// materializing a Digraph per epoch only to tear it apart again inside the
// cycle-mean routines is pure allocation churn.  This kernel runs straight
// off a row-major k x k weight matrix (diagonal ignored) with all scratch in
// an EpochArena, and reproduces the graph-based policies BIT FOR BIT: the
// greedy initialization and two-stage improvement scan successors in
// ascending index skipping the diagonal — exactly the j-ascending edge
// order of a complete subgraph built row by row.
// ---------------------------------------------------------------------------

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
/// successor per node (k entries).  Mirrors
/// max_cycle_mean_howard_warm(complete graph) exactly, including the
/// "cycle_mean.howard_*" counters and iteration series.
HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics);

}  // namespace cs
