// Step 1 of the pipeline: estimated maximal local shifts from views.
//
// For every link {a, b} and both orientations, apply the link constraint's
// closed form (§6) to the estimated per-direction delay statistics
// (Lemma 6.1) to get m̃ls(p, q).  The result is a directed graph whose edge
// weights are the finite m̃ls values; +inf estimates (no information at all
// in that orientation) are represented by edge absence.
//
// Ingest takes one of two paths, with bit-identical results wherever both
// apply (min and max over the same doubles are exact):
//
//   * extremes — when every link's constraint is extreme-sufficient
//     (SystemModel::extreme_sufficient: the bounds, lower-bound, no-bounds
//     and bias models and composites of them, Cor 6.3/6.6), each paired
//     message is folded straight into the flat per-direction LinkStats,
//     m̃ls comes from mls_graph_from_stats and coverage from the counts;
//   * traffic — otherwise (a windowed-bias link, alone or in a composite),
//     every observation is kept with its send time in LinkTraffic and
//     folded by mls_graph_from_traffic.
//
// Callers that need the observations themselves (MAD trimming, the drift
// OLS) build LinkTraffic directly.
#pragma once

#include <span>

#include "core/degraded.hpp"
#include "delaymodel/assignment.hpp"
#include "delaymodel/link_stats.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// What one ingest pass over a set of views yields.
struct LocalEstimates {
  Digraph mls;            ///< the m̃ls graph
  LinkCoverage coverage;  ///< per-direction observation census
  PairingStats pairing;   ///< what pairing kept and skipped
};

/// The one ingest function: pair the views' messages and fold them into
/// the m̃ls graph, taking the extremes path when the model allows it and
/// the traffic path otherwise.  Use MatchPolicy::kDropOrphans when the
/// views are epoch-boundary prefixes (see View::prefix).  `threads` shards
/// the traffic path's per-link folds (byte-identical output for any value,
/// see mls_graph_from_traffic); the extremes path is one serial pass.
LocalEstimates ingest_views(const SystemModel& model,
                            std::span<const View> views,
                            MatchPolicy policy = MatchPolicy::kStrict,
                            std::size_t threads = 1);

/// mls graph from ground truth — observer path, for lower-bound evaluation
/// and tests.  Identical formulas over actual delays (Lemma 6.2/6.5 give
/// mls; Cor 6.3/6.6 give m̃ls — the same function of the respective stats).
Digraph local_shifts_actual(const SystemModel& model, const Execution& exec);

/// Shared kernel: m̃ls (or mls) graph from pre-aggregated per-direction
/// statistics, read by direction slot in link order.  The extremes path of
/// ingest_views, the §7 leaders (SyncAgent and NetDaemon, which receive
/// remotely aggregated extremes rather than raw views —
/// delaymodel/extremes.hpp) and the drift estimator use it.  `stats` must
/// be laid out for a model of this topology (InvalidAssumption otherwise).
/// Note: a windowed-bias constraint, which is not extreme-sufficient,
/// falls back here to its conservative stats-only envelope (d̃min);
/// ingest_views sends such models down the traffic path, and the §7 front
/// ends refuse them.
Digraph mls_graph_from_stats(const SystemModel& model,
                             const LinkStats& stats);

/// Full-fidelity kernel over per-direction timed observations; the
/// traffic path of ingest_views and what local_shifts_actual uses.  With
/// threads != 1 the per-link m̃ls folds (independent closed-form
/// evaluations over disjoint observation spans) run across the
/// work-stealing pool; edges are then inserted serially in link order, so
/// the resulting Digraph is byte-identical to the serial build for any
/// thread count.
Digraph mls_graph_from_traffic(const SystemModel& model,
                               const LinkTraffic& traffic,
                               std::size_t threads = 1);

}  // namespace cs
