// The end-to-end optimal clock synchronization pipeline — the library's
// primary public API.
//
//   views ──(Lemma 6.1 + §6 closed forms)──► m̃ls graph
//         ──(GLOBAL ESTIMATES, Thm 5.5)───► m̃s matrix
//         ──(SHIFTS, Thm 4.6)─────────────► corrections + Ã^max
//
// The input is deliberately std::span<const View>: the correction function
// may depend on nothing else (Claim 3.1).  The SystemModel supplies the
// delay assumptions A; the paper's "interactive part" (which messages were
// sent) is whatever produced the views — any protocol, any message pattern,
// including none.
#pragma once

#include <span>

#include "core/global_estimates.hpp"
#include "core/shifts.hpp"
#include "delaymodel/assignment.hpp"

namespace cs {

struct SyncOptions {
  /// Root processor for the gauge choice (correction of root is 0).
  NodeId root{0};
  /// kDropOrphans when the views are epoch-boundary prefixes.
  MatchPolicy match{MatchPolicy::kStrict};
  /// Optional instrumentation sink: per-stage wall-clock timings
  /// ("stage.*_seconds" series), APSP and Howard counters.  nullptr = off.
  Metrics* metrics{nullptr};

  /// Worker threads for the independently-parallel pipeline stages: the
  /// per-link m̃ls folds of the traffic path (models with a windowed-bias
  /// link; the extremes path is one serial pass) and, on unbounded
  /// instances, the per-finiteness-component SHIFTS solves.  1 = serial
  /// (default); 0 = hardware concurrency.  Results are byte-identical for
  /// any value — the parallel stages only shard work whose writes are
  /// disjoint (see local_estimates.hpp and ShiftsOptions::threads).
  std::size_t threads{1};
};

struct SyncOutcome {
  /// Correction offset per processor; corrected clock = local clock +
  /// correction (Definition 2.1).
  std::vector<double> corrections;

  /// The instance-optimal guaranteed precision Ã^max = A^max.  +inf when
  /// the views give no finite bound for some pair (the instance is then
  /// synchronized per finiteness component).
  ExtReal optimal_precision{0.0};

  /// Per-component data for unbounded instances (see shifts.hpp).
  SccResult components;
  std::vector<double> component_precision;

  /// A critical cycle of a bounded instance, as SHIFTS found it: the
  /// processors whose pairwise shift estimates bind the precision
  /// (ShiftsResult::critical_cycle).  Empty when unbounded or n = 1.
  std::vector<NodeId> critical_cycle;

  /// Intermediate products, exposed for inspection, evaluation and tests.
  Digraph mls_graph;
  DistanceMatrix ms_estimates;

  bool bounded() const { return optimal_precision.is_finite(); }
};

/// Compute optimal corrections for the given views under the given system
/// assumptions.  Throws InvalidAssumption if the views contradict the
/// assumptions, InvalidExecution if the views are malformed.
SyncOutcome synchronize(const SystemModel& model, std::span<const View> views,
                        const SyncOptions& options = {});

/// Pipeline tail — GLOBAL ESTIMATES + SHIFTS — over an already-built m̃ls
/// graph.  synchronize() is ingest_views() followed by this; callers that
/// build or filter the graph themselves (wire-reported extremes, the drift
/// detrending, the byz harness's trim → fold → quorum sequence of
/// core/robust.hpp) finish here.
SyncOutcome synchronize_mls(Digraph mls_graph,
                            const SyncOptions& options = {});

}  // namespace cs
