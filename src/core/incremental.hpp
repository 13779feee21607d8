// Incremental epoch pipeline — the stateful counterpart of synchronize().
//
// Periodic re-synchronization (core/epochs) runs the pipeline at every
// epoch boundary, but consecutive boundaries see almost the same traffic:
// only the m̃ls edges whose links absorbed new probes change, and with
// growing view prefixes they only tighten (d̃min never grows).  Instead of
// recomputing the APSP closure and the max-cycle-mean from nothing each
// time, IncrementalSynchronizer carries the previous epoch's state across:
//
//   * the APSP closure is delta-updated (graph/incremental_apsp.hpp),
//     falling back to a full Johnson rebuild only when the m̃ls delta is
//     large or the node set changed;
//   * Howard's policy iteration warm-starts from the previous epoch's
//     optimal policy (graph/cycle_mean.hpp).
//
// Results are equivalent to synchronize_mls() up to float tolerance —
// enforced by the 200-sequence property test in
// tests/core/incremental_pipeline_test.cpp; bench E15 (BENCH_csr.json)
// measures the speedup over the from-scratch closure.
#pragma once

#include <vector>

#include "core/synchronizer.hpp"
#include "graph/incremental_apsp.hpp"

namespace cs {

class IncrementalSynchronizer {
 public:
  /// `model` must outlive the synchronizer.  options.metrics (optional) is
  /// shared with every step; it also receives the incremental/full APSP
  /// counters ("apsp.incremental_updates", "apsp.full_rebuilds",
  /// "apsp.dirty_fallbacks") and Howard warm-start counters.
  explicit IncrementalSynchronizer(const SystemModel& model,
                                   SyncOptions options = {});

  /// Pipeline tail over an already-built m̃ls graph (the counterpart of
  /// synchronize_mls), reusing the previous call's APSP matrix and Howard
  /// policy where the m̃ls delta allows: the epoch driver estimates and
  /// carry-forwards the graph itself, then delta-updates through here.
  /// Throws InvalidAssumption on an inadmissible graph (and drops the
  /// carried state), InvalidExecution on a node-count mismatch.
  SyncOutcome step_mls(Digraph mls_graph);

 private:
  const SystemModel* model_;
  SyncOptions options_;
  IncrementalApsp apsp_;
  std::vector<NodeId> policy_;  // previous epoch's Howard policy
  EpochArena shifts_arena_;     // SHIFTS scratch, reused across epochs
};

}  // namespace cs
