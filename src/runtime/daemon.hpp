// run_live(): one fully assembled live synchronization run — transport,
// host, n SyncAgents — plus the post-run analysis: ground-truth realized
// precision, the offline cross-check over the recorded views, and optional
// trace recording for bit-for-bit replay.
//
// This is the layer cs_syncd (the one live front end), examples and tests
// all call; everything below it is reusable parts, everything above it is
// argument parsing and printing.  See docs/RUNTIME.md.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "byz/plan.hpp"
#include "common/metrics.hpp"
#include "drift/scheduler.hpp"
#include "runtime/agent.hpp"
#include "runtime/udp_transport.hpp"

namespace cs {

struct ZonePlan;

enum class LiveTransportKind {
  kLoopback,          ///< virtual time, deterministic (the tier-1 mode)
  kLoopbackThreaded,  ///< wall time, in-process dispatcher thread
  kUdp,               ///< wall time, real datagram sockets on 127.0.0.1
};

const char* to_string(LiveTransportKind kind);

struct LiveConfig {
  std::uint64_t seed{1};
  /// Start offsets S_p; empty = uniform in [0, skew] drawn from the seed.
  std::vector<Duration> start_offsets;
  double skew{0.05};

  LiveTransportKind transport{LiveTransportKind::kLoopback};
  /// Loopback delay/drop knobs (ignored by UDP, which has real delays).
  double delay_scale{0.01};
  double drop_probability{0.0};
  /// UDP endpoint options (bind address, receive buffer); ignored by the
  /// loopback transports.  A bad bind address throws cs::Error at setup.
  UdpTransportOptions udp;

  /// Protocol schedule and pipeline options.
  SyncAgentParams agent;

  /// Record the run to this trace file ("" = off).  Recorded traces replay
  /// through `cs_sync replay` like simulator traces.
  std::string trace_path;

  /// Re-run the offline pipeline over the recorded views and compare
  /// per-epoch corrections/precision against the live protocol's.
  bool offline_check{true};

  /// Wall-mode run budget (virtual mode runs to quiescence).
  Duration deadline{30.0};
  std::size_t max_events{1'000'000};

  /// Optional zone plan (core/zones.hpp): splits each epoch's ground-truth
  /// realized precision into per-zone and cross-zone components in the
  /// report rows.  Not owned; must outlive the run and cover the model's
  /// processors.
  const ZonePlan* zones{nullptr};

  /// Optional drift budget (drift/scheduler.hpp).  When active, the epoch
  /// schedule is fitted to the budget before the run: `agent.period` is
  /// clamped to max_resync_interval(rho, slack) and `agent.epochs`
  /// stretched so the schedule still covers the requested span — drift can
  /// then add at most `slack` to any epoch's precision between
  /// re-synchronizations.  The fitted schedule, per-epoch drift-adjusted
  /// bounds and "runtime.drift.*" metrics land in the report.
  drift::DriftBudget drift;

  /// Optional Byzantine plan (--byz-plan grammar; byz/plan.hpp).  Lying
  /// agents corrupt the stamps in their probe/echo payloads, so the
  /// leader's computed corrections are built from poisoned d̃ streams.
  /// The recorded views keep the *true* stamps (lies are reports, not
  /// physics), so the offline bitwise cross-check is skipped on dishonest
  /// runs — it would compare against an execution the liars never showed
  /// anyone.  The ground-truth realized_precision rows still tell you what
  /// the adversary cost.
  byz::ByzPlanSpec byz;
};

struct LiveEpochReport {
  std::size_t epoch{0};
  ClockTime boundary{};
  std::vector<double> corrections;
  std::optional<double> claimed_precision;
  bool degraded{false};
  /// Detected outage: the leader's pipeline rejected the epoch's traffic
  /// (negative m̃ls cycle — wrong declared bounds or a lying agent).  No
  /// corrections; claimed_precision is +inf.
  bool detected{false};
  std::size_t reports_absorbed{0};
  std::size_t acks{0};

  /// Ground truth: max pairwise spread of the corrected clocks,
  /// max_{p,q} |(x_p - S_p) - (x_q - S_q)| — time-independent under the
  /// paper's drift-free clocks.  Thm 4.6: <= claimed_precision on every
  /// admissible run.  Unset until the epoch computed.
  std::optional<double> realized_precision;

  /// Zone split of realized_precision (set iff LiveConfig::zones and the
  /// epoch computed): max within-zone / max cross-zone discrepancy.
  std::optional<double> realized_intra;
  std::optional<double> realized_cross;

  /// Drift-adjusted promise for this epoch (set iff the run's drift budget
  /// is active and the epoch computed): claimed_precision + the budget's
  /// slack, the bound the deployment can hold until the next
  /// re-synchronization (drift/scheduler.hpp).
  std::optional<double> drift_bound;

  /// Offline pipeline over the recorded views at the same boundary
  /// (set when LiveConfig::offline_check).
  std::optional<double> offline_precision;
  std::vector<double> offline_corrections;
  /// Live corrections and precision equal the offline ones bit-for-bit.
  bool matches_offline{false};
};

struct LiveReport {
  std::string transport;
  std::size_t agents{0};
  std::vector<Duration> start_offsets;
  std::vector<LiveEpochReport> epochs;

  /// Every epoch computed and disseminated to every agent.
  bool converged{false};
  /// Offline cross-check ran and every computed epoch matched bit-for-bit.
  bool checked{false};
  bool all_match{false};
  /// The run had lying agents (LiveConfig::byz); the offline cross-check
  /// was skipped even if requested.
  bool byzantine{false};
  std::size_t byz_liars{0};
  /// Epochs the leader rejected as inadmissible (LiveEpochReport::detected).
  std::size_t detected_epochs{0};

  std::size_t dispatched{0};
  bool timed_out{false};

  /// The epoch schedule actually run (== the config's agent schedule
  /// unless an active drift budget clamped it).
  Duration resync_period{0.0};
  std::size_t resync_epochs{0};
  bool resync_clamped{false};

  /// "runtime.*" host counters merged with the offline pipeline's
  /// "stage.*"/"apsp.*" instrumentation.
  Metrics metrics;
};

/// Assemble and run a live synchronization over `model` (its processor
/// count is the agent count).  Throws cs::Error on invalid configuration.
LiveReport run_live(const SystemModel& model, const LiveConfig& config);

}  // namespace cs
