// The execution-trace data model and its versioned line-based format.
//
// A trace is the complete, replayable record of one run: the system model,
// the ground-truth per-processor start times (and clock rates, when the E9
// drift extension is in play), every event in dispatch order — sends,
// deliveries, losses with cause, fault decisions, timers — the epoch
// schedule the pipeline was driven with, and the recorded per-epoch
// outcomes and counters.  docs/TRACE.md specifies the grammar; the
// round-trip is exact (doubles print with 17 significant digits) and the
// output is line-based and diff-able, like the views/model interchange
// format it embeds (io/views_io.hpp).
//
//   chronosync-trace v1
//   processors <n> / seed <u64> / start <pid> <t> / rate <pid> <r>
//   begin model ... end model          # embedded chronosync-model v1 doc
//   root/match/window/staleness        # the replay plan
//   boundary <T_k>                     # the epoch schedule
//   event <tag> ...                    # the run, in dispatch order
//   tally <name> <value>               # simulator summary tallies
//   outcome <k> ...                    # recorded per-epoch results
//   counter <name> <value>             # recorded deterministic counters
//   end trace
//
// Replay (replay.hpp) re-derives everything below the `event` section from
// the sections above it and diffs against the recorded outcome — the
// correctness backbone for the fault/degraded paths (docs/FAULTS.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/extreal.hpp"
#include "core/epochs.hpp"
#include "model/ids.hpp"
#include "sim/trace_sink.hpp"

namespace cs {

/// One recorded event.  `a` is the acting processor (sender for
/// send-side records, receiver for delivery-side ones, owner for timers);
/// `b` is the peer of message events.
struct TraceEvent {
  enum class Kind : char {
    kSend = 'D',             ///< a=sender   b=receiver  clock=send clock
    kDeliver = 'R',          ///< a=receiver b=sender    clock=recv clock
    kLoss = 'L',             ///< a=sender   b=receiver  cause set
    kCrashDrop = 'X',        ///< a=receiver b=sender    (dead receiver)
    kDuplicate = 'U',        ///< a=sender   b=receiver  extra=dup lag
    kSpike = 'K',            ///< a=sender   b=receiver  extra=added delay
    kTimerSet = 'T',         ///< a=owner    clock=now   timer_at set
    kTimerFire = 'F',        ///< a=owner    clock=fire  timer_at set
    kTimerSuppressed = 'Z',  ///< a=owner    timer_at set (dead owner)
  };

  Kind kind{Kind::kSend};
  RealTime real{};     ///< ground-truth real time of the event
  ProcessorId a{0};
  ProcessorId b{0};
  MessageId msg{0};
  ClockTime clock{};   ///< local clock time (D/R/T/F)
  ClockTime timer_at{};///< T/F/Z
  double extra{0.0};   ///< U: duplicate lag; K: added delay
  LossCause cause{LossCause::kSampler};  ///< L only

  bool operator==(const TraceEvent&) const = default;
};

/// How the recorded run drove the epoch pipeline — everything replay needs
/// to re-run it bit-identically.  `options.sync.metrics` is a process-local
/// pointer and is never serialized (always null after load).
struct ReplayPlan {
  EpochOptions options;
  std::vector<ClockTime> boundaries;
};

/// Recorded outcome of one epoch — the bit-exact expectations replay
/// verifies against (corrections, precision, degraded-mode census).
struct EpochRecord {
  ClockTime boundary{};
  ExtReal precision{0.0};
  std::size_t carried_edges{0};
  std::size_t observed_directions{0};
  std::size_t total_directions{0};
  PairingStats pairing;
  std::vector<double> component_precision;  ///< one per finiteness component
  std::vector<double> corrections;          ///< one per processor

  bool operator==(const EpochRecord&) const;
};

/// A fully parsed (or fully recorded) trace.
struct Trace {
  std::uint64_t seed{0};
  std::size_t processors{0};
  std::vector<double> starts;  ///< ground-truth real start time per pid
  std::vector<double> rates;   ///< empty = all clocks at rate exactly 1
  std::string model_text;      ///< embedded chronosync-model v1 document
  ReplayPlan plan;
  std::vector<TraceEvent> events;
  std::map<std::string, std::uint64_t> tallies;   ///< sim summary tallies
  std::vector<EpochRecord> recorded;              ///< per-epoch outcomes
  std::map<std::string, std::uint64_t> counters;  ///< recorded counters

  /// Parse the embedded model document.  Throws cs::Error (with the line
  /// number inside the embedded block) on malformed model text.
  SystemModel model() const;
};

/// Serialize; output is deterministic given the Trace (maps are ordered).
void save_trace(std::ostream& os, const Trace& trace);
void save_trace_file(const std::string& path, const Trace& trace);

/// Parse; throws cs::Error naming the 1-based line number and the
/// offending token on any malformed input.
Trace load_trace(std::istream& is);
Trace load_trace_file(const std::string& path);

/// One-line rendition of an event, exactly as serialized (used by save,
/// and by diff/divergence messages so operators see the raw record).
std::string format_event(const TraceEvent& ev);

/// Build the recorded-outcome row from a computed epoch outcome.
EpochRecord epoch_record(const EpochOutcome& outcome);

}  // namespace cs
