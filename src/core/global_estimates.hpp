// Step 2: GLOBAL ESTIMATES (Theorem 5.5).
//
// In a local system, the maximal global shift is the shortest-path distance
// over maximal local shifts (Lemma 5.3), and the same holds verbatim for
// the estimated quantities because start-time terms telescope along paths.
// So m̃s = APSP(m̃ls graph), with +inf for pairs no constraint chain
// connects.  The closure runs Johnson's algorithm (graph/johnson.hpp); the
// epoch driver delta-updates it instead (core/incremental.hpp).
#pragma once

#include "common/metrics.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

/// Per-edge slack added before APSP so that executions sitting exactly on
/// their delay bounds (cycle weight ~-1 ulp where theory guarantees >= 0)
/// stay admissible; see the numeric tolerance contract in DESIGN.md.
inline constexpr double kMlsSlack = 1e-12;

/// The m̃ls graph with kMlsSlack added to every edge — the graph APSP
/// actually runs on.  Exposed so the incremental epoch pipeline diffs the
/// same graph the from-scratch path closes over.
Digraph slack_relaxed_mls(const Digraph& mls_graph);

/// Throws InvalidAssumption if the m̃ls graph has a negative cycle — that is
/// a proof the observed execution is not admissible under the declared
/// assumptions (cycle weights are invariant between mls and m̃ls, and true
/// mls cycles are non-negative).  `metrics` (optional) receives the
/// "stage.global_estimates_seconds" timing.
DistanceMatrix global_shift_estimates(const Digraph& mls_graph,
                                      Metrics* metrics = nullptr);

}  // namespace cs
