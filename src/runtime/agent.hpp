// SyncAgent: the §7 probe → report → compute → disseminate protocol as a
// live, multi-epoch automaton.
//
// Each agent ping-pongs probes with its neighbors (every probe and echo
// carries its send clock, so the receiver banks d̃ = T_recv − T_send per
// incoming direction — Lemma 6.1 online, via OnlineEstimator).  At each
// epoch boundary T_k = report_at + (k−1)·period it folds the observations
// newly inside the boundary's cumulative cut into per-direction extremes
// (a *delta report*, in the payload NetDaemon sends — delaymodel/
// extremes.hpp) and floods it; the leader folds the deltas into one
// cumulative LinkStats, and when it holds all n reports of epoch k it runs
// the same pipeline tail the offline epoch driver runs —
// mls_graph_from_stats followed by IncrementalSynchronizer::step_mls — and
// floods corrections.  Because the cut predicate, the pairing dedup, the d̃
// doubles, and the pipeline entry point all match the offline path
// exactly, and min and max over the same doubles are exact, a
// deterministic run's converged corrections equal the offline pipeline's
// bit-for-bit.  A model with a windowed-bias link, whose m̃ls needs the
// observation series, is refused (make_sync_agents throws).
// docs/RUNTIME.md states the contract.
//
// Watchdog: with `grace` > 0 the leader arms a deadline at T_k + grace; if
// reports are still missing when it fires, it computes from what arrived —
// degraded coverage, possibly per-component precision — and floods the
// (flagged) result rather than stalling the protocol forever.  Reports
// arriving after a degraded compute still join the cumulative stats for
// the next epoch.
//
// The automaton runs over Context (sim/automaton.hpp), so the same class
// runs under the simulator and under the live AgentHost unchanged — the
// runtime's own automata stay on the processor side of the clock fence.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "byz/plan.hpp"
#include "core/synchronizer.hpp"
#include "sim/simulator.hpp"

namespace cs {

inline constexpr std::uint32_t kTagLiveProbe = 20;
inline constexpr std::uint32_t kTagLiveEcho = 21;
inline constexpr std::uint32_t kTagLiveReport = 22;
inline constexpr std::uint32_t kTagLiveCorrections = 23;

struct SyncAgentParams {
  /// First probe fires at this clock time.
  Duration warmup{0.2};
  /// Gap between probe rounds (and before the first round of later epochs).
  Duration spacing{0.05};
  /// Probe rounds per epoch (each round pings every neighbor).
  std::size_t rounds{4};
  /// First epoch boundary T_1 (a clock time; must exceed the probe phase).
  Duration report_at{1.0};
  /// Boundary spacing: T_{k+1} = T_k + period.
  Duration period{1.0};
  std::size_t epochs{1};
  /// Leader watchdog: at T_k + grace a still-incomplete epoch is computed
  /// from the reports that made it (degraded).  Zero disables — the leader
  /// then waits indefinitely, and only the host deadline bounds the run.
  /// Negative is refused.
  Duration grace{0.0};
  ProcessorId leader{0};
  /// Pipeline options for the leader's compute (root is forced to
  /// `leader`, match to kDropOrphans — the epoch-cut pairing policy).
  SyncOptions sync;
  /// Optional Byzantine plan (byz/plan.hpp): lying agents corrupt the
  /// clock stamps they write into probe/echo *payloads* — the values their
  /// peers' online estimators consume — via lie_payload_stamp.  The host's
  /// own event records stay truthful (lies are reports, never physics), so
  /// the offline cross-check over recorded views diverges by design;
  /// run_live skips the bitwise comparison when the plan is dishonest.
  /// Not owned; must outlive the run.  nullptr = all honest.
  const byz::ByzPlan* byz{nullptr};
};

/// One epoch's converged state in the shared results sink.
struct LiveEpoch {
  std::size_t epoch{0};  ///< 1-based protocol epoch number
  ClockTime boundary{};
  std::vector<double> corrections;  ///< empty until computed
  std::optional<double> claimed_precision;  ///< +inf encodes unbounded
  bool degraded{false};
  /// The leader's pipeline hit a negative m̃ls cycle at this boundary: the
  /// traffic contradicts the declared assumptions (wrong bounds, or a lying
  /// agent — byz/plan.hpp).  The epoch is an outage: no corrections, the
  /// claimed precision is +inf, and the outage notice was flooded so the
  /// protocol still terminates.
  bool detected{false};
  std::size_t reports_absorbed{0};
  std::size_t acks{0};  ///< agents that saw the corrections flood

  bool computed() const { return claimed_precision.has_value(); }
};

/// Shared by all agents of one run.  Thread-compatible, not thread-safe:
/// the host dispatches every callback on one thread, and results are read
/// after the run quiesces.
class LiveResults {
 public:
  LiveResults(std::size_t agents, const SyncAgentParams& params);

  std::size_t agent_count() const { return agents_; }
  LiveEpoch& epoch(std::size_t k);  ///< 1-based
  const std::vector<LiveEpoch>& epochs() const { return epochs_; }

  /// Record that `pid` received (or, for the leader, produced) epoch k's
  /// corrections; idempotent per (k, pid).
  void ack(std::size_t k, ProcessorId pid);

  /// Every epoch computed and its corrections seen by every agent.
  bool all_complete() const;

 private:
  std::size_t agents_;
  std::vector<LiveEpoch> epochs_;
  std::vector<std::vector<bool>> acked_;
};

/// The epoch boundary schedule the agents follow — the exact ClockTime
/// doubles, for handing to the offline epoch driver as its boundary list.
std::vector<ClockTime> sync_agent_boundaries(const SyncAgentParams& params);

/// `model` and `results` must outlive the run.  Validates the schedule
/// (probe phase before T_1, probes of each epoch before its boundary,
/// grace >= 0) and refuses a model that is not extreme-sufficient.
AutomatonFactory make_sync_agents(const SystemModel* model,
                                  SyncAgentParams params,
                                  LiveResults* results);

}  // namespace cs
