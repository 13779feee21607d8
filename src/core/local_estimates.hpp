// Step 1 of the pipeline: estimated maximal local shifts from views.
//
// For every link {a, b} and both orientations, apply the link constraint's
// closed form (§6) to the estimated per-direction delay statistics
// (Lemma 6.1) to get m̃ls(p, q).  The result is a directed graph whose edge
// weights are the finite m̃ls values; +inf estimates (no information at all
// in that orientation) are represented by edge absence.
#pragma once

#include <span>

#include "delaymodel/assignment.hpp"
#include "delaymodel/link_stats.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// m̃ls graph from views — the pipeline path (uses estimated delays only).
/// Use MatchPolicy::kDropOrphans when the views are epoch-boundary
/// prefixes (see View::prefix).  `threads` shards the per-link constraint
/// folds across the work-stealing pool (1 = serial; byte-identical output
/// for any value — see mls_graph_from_traffic).
Digraph local_shift_estimates(const SystemModel& model,
                              std::span<const View> views,
                              MatchPolicy policy = MatchPolicy::kStrict,
                              std::size_t threads = 1);

/// mls graph from ground truth — observer path, for lower-bound evaluation
/// and tests.  Identical formulas over actual delays (Lemma 6.2/6.5 give
/// mls; Cor 6.3/6.6 give m̃ls — the same function of the respective stats).
Digraph local_shifts_actual(const SystemModel& model, const Execution& exec);

/// Shared kernel: m̃ls (or mls) graph from pre-aggregated per-direction
/// statistics.  Used by the multihost daemon (net/daemon.hpp), whose
/// leader receives remotely aggregated extremes rather than raw views.
/// Note: time-aware constraints (windowed bias) fall back to their
/// conservative stats-only envelope on this path — an extremes report
/// carries no send times.  Use the traffic path for full fidelity.
Digraph mls_graph_from_stats(const SystemModel& model,
                             const LinkStats& stats);

/// Full-fidelity kernel over per-direction timed observations; what
/// local_shift_estimates / local_shifts_actual use.  With threads != 1 the
/// per-link m̃ls folds (independent closed-form evaluations over disjoint
/// observation spans) run across the work-stealing pool; edges are then
/// inserted serially in link order, so the resulting Digraph is
/// byte-identical to the serial build for any thread count.
Digraph mls_graph_from_traffic(const SystemModel& model,
                               const LinkTraffic& traffic,
                               std::size_t threads = 1);

}  // namespace cs
