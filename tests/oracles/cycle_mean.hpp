// Cycle-mean reference kernels: the oracles the SHIFTS kernel
// (graph/cycle_mean.hpp) is checked against, and the E7/E8 ablation arms.
// No product path runs them.
#pragma once

#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "graph/cycle_mean.hpp"
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

}  // namespace cs
