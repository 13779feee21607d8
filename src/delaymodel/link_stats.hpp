// Per-direction delay statistics.
//
// Lemmas 6.2 and 6.5 show that for both the bounds model and the bias model
// the maximal local shift depends on the observed delays only through the
// per-direction extremes d_min(p,q) and d_max(p,q).  LinkStats is exactly
// that sufficient statistic.  It can be built from views (estimated delays,
// what the pipeline uses) or from an execution (actual delays, used for
// admissibility checking and test oracles).
//
// Layout: one flat array of DirectedStats in the model's direction order
// (SystemModel::direction — link i's a -> b at 2i, b -> a at 2i + 1), so
// the m̃ls fold reads it by slot and the coverage census reads its counts.
// Only topology links have slots.  LinkTraffic, which keeps every
// observation with its send time, stays a per-direction map: it serves the
// models and passes that need the full series (windowed bias, MAD
// trimming, the drift OLS).
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/extreal.hpp"
#include "model/execution.hpp"
#include "model/pairing.hpp"

namespace cs {

struct DirectedStats {
  /// Minimum observed delay on the direction; +inf when no message.
  ExtReal dmin = ExtReal::infinity();
  /// Maximum observed delay; -inf when no message (paper's convention).
  ExtReal dmax = ExtReal::neg_infinity();
  std::size_t count = 0;

  void add(double delay) {
    dmin = min(dmin, ExtReal{delay});
    dmax = max(dmax, ExtReal{delay});
    ++count;
  }
};

class SystemModel;  // delaymodel/assignment.hpp

class LinkStats {
 public:
  /// Zero-message stats for every link direction of `model`, which must
  /// outlive this object.
  explicit LinkStats(const SystemModel& model);

  /// True when the slots are `model`'s directions: the stats were built
  /// for it, or for a model with the same link list.
  bool laid_out_for(const SystemModel& model) const;

  /// Stats for direction p -> q; a zero-message DirectedStats if none or
  /// if {p, q} is not a link.
  const DirectedStats& direction(ProcessorId p, ProcessorId q) const;

  /// Stats of direction slot `d` < model().direction_count().
  const DirectedStats& at(std::size_t d) const { return stats_[d]; }

  /// Fold one delay into direction p -> q.  A pair that is not a link has
  /// no slot and is skipped: no m̃ls edge could read it.
  void add(ProcessorId p, ProcessorId q, double delay);

  /// Install pre-aggregated extremes for one direction (merging with any
  /// existing entry; non-links skipped as in add()).  Used by the drift
  /// estimator, whose detrended extremes are not expressible as a stream
  /// of raw add() calls, and by the §7 leaders' extremes reports
  /// (delaymodel/extremes.hpp).
  void add_stats(ProcessorId p, ProcessorId q, const DirectedStats& s);

  /// Estimated delays d̃(m) from views only (Lemma 6.1) — the pipeline
  /// path.  `stats`, when non-null, receives the pairing tallies.
  static LinkStats estimated_from_views(
      const SystemModel& model, std::span<const View> views,
      MatchPolicy policy = MatchPolicy::kStrict,
      PairingStats* stats = nullptr);

  /// Actual delays d(m) from ground truth — observer-only path.
  static LinkStats actual_from_execution(const SystemModel& model,
                                         const Execution& exec);

 private:
  const SystemModel* model_;
  std::vector<DirectedStats> stats_;  // direction order
};

/// A delay observation with its send time.  Two flavors share the type:
/// *actual* observations carry real send times and actual delays (the
/// admissibility side), *estimated* observations carry the sender's send
/// clock time and the estimated delay d̃ (the estimator side).  All §6
/// formulas are form-identical between the two (the S-terms telescope),
/// and that extends to the windowed-bias model — see windowed_bias.cpp for
/// the derivation.
struct TimedObs {
  double send{0.0};
  double delay{0.0};
};

/// Full per-direction observation lists with send times — the sufficient
/// statistic for *time-aware* models (windowed bias), where the extremes
/// alone are not enough.  Same two construction paths as LinkStats.
class LinkTraffic {
 public:
  /// Observations for direction p -> q, in insertion order.
  std::span<const TimedObs> direction(ProcessorId p, ProcessorId q) const;

  void add(ProcessorId p, ProcessorId q, TimedObs obs);

  /// Estimated observations (send clock of the sender, d̃) from views.
  /// `stats`, when non-null, receives the pairing tallies (orphans and
  /// duplicates skipped under kDropOrphans) for coverage reporting.
  static LinkTraffic estimated_from_views(
      std::span<const View> views,
      MatchPolicy policy = MatchPolicy::kStrict,
      PairingStats* stats = nullptr);

  /// Actual observations (real send time, actual delay) from ground truth.
  static LinkTraffic actual_from_execution(const Execution& exec);

 private:
  static std::uint64_t key(ProcessorId p, ProcessorId q) {
    return (static_cast<std::uint64_t>(p) << 32) | q;
  }
  std::unordered_map<std::uint64_t, std::vector<TimedObs>> traffic_;
};

}  // namespace cs
