// Deterministic replay and structural diff of execution traces.
//
// replay() re-drives the full epoch pipeline — view reconstruction, m̃ls
// estimation, MlsCarry staleness carry-forward, the APSP closure and
// SHIFTS, via step_mls/synchronize_mls — from a trace alone: no simulator,
// no RNG.  Every quantity the pipeline produces is recomputed from the
// recorded clock times, which round-trip exactly, so a healthy replay
// reproduces bit-identical per-processor corrections, achieved precision,
// and the "fault.*"/pipeline counters; any difference against the
// recording is reported as a divergence.  That makes a recorded trace a
// self-verifying regression artifact (tests/data/*.trace, CI golden-trace
// job) and a debugging instrument: perturb one record, replay, and read
// off the first divergence (examples/trace_replay.cpp).
//
// diff_traces() is the offline comparator: a structural, section-by-
// section comparison of two traces with first-divergence reporting per
// section — what `cs_sync diff` prints.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cs {

/// Everything a replay recomputed, plus the divergence report against the
/// trace's own recording.
struct ReplayResult {
  std::vector<View> views;           ///< rebuilt from the event records
  std::vector<EpochOutcome> epochs;  ///< recomputed by the epoch pipeline
  Metrics metrics;  ///< fault.* tallied from events + recomputed pipeline
                    ///< counters; compare with the recording via counters.
                    ///< Series also time the views rebuild
                    ///< (stage.ingest.views_seconds) and the epochs.
  std::vector<std::string> divergences;

  bool matches_recording() const { return divergences.empty(); }
};

/// Rebuild every processor's View from the trace's event records (one
/// in-order pass; see the hook order contract in sim/trace_sink.hpp).
/// Bit-identical to Execution::views() of the recorded run.
std::vector<View> views_from_trace(const Trace& trace);

/// Replay the trace and verify it against its own recorded outcomes,
/// counters and tallies.  Traces recorded without outcomes (capture-only)
/// replay with an empty divergence list for those sections.
/// Throws cs::Error on a malformed trace (bad embedded model, event for an
/// out-of-range processor).
ReplayResult replay(const Trace& trace);

/// Structural comparison: first divergence per section (header, starts,
/// rates, model, plan, boundaries, events, tallies, outcomes, counters),
/// capped at `max_reports` messages.  Empty result = structurally equal.
std::vector<std::string> diff_traces(const Trace& a, const Trace& b,
                                     std::size_t max_reports = 16);

/// The trace with its recorded outcomes/counters/tallies replaced by the
/// replayed ones — what `cs_sync replay --rerecord` writes.  A re-recorded
/// trace diffs clean against the original iff the replay matched.
Trace rerecorded(const Trace& trace, const ReplayResult& result);

}  // namespace cs
