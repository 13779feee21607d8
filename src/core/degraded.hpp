// Degraded-mode synchronization: what the pipeline does when links go
// quiet.
//
// Fault injection (sim/fault_plan.hpp) — and any real deployment — produces
// epochs in which some links contributed no usable observations: messages
// were dropped, the link was down, a processor was crashed, or (in
// sliding-window mode) every observation aged out of the window.  Absent
// observations mean absent m̃ls edges, and absent edges mean the epoch's
// instance may be partitioned: no finite precision is guaranteed across the
// cut, only within each finiteness component (shifts.hpp).
//
// This header provides the two degraded-mode primitives the epoch driver
// layers over the plain pipeline:
//
//   * LinkCoverage — the per-direction observation census of one epoch, so
//     operators can see *which* links starved rather than puzzle over a
//     loosened precision report;
//   * MlsCarry — cross-epoch carry-forward of m̃ls edges for links with
//     zero fresh observations, with configurable staleness widening.  A
//     carried edge reuses the last observed m̃ls bound, loosened by
//     `widen_per_epoch` for every epoch of age: under drift-free clocks
//     the old bound is still exact (observations never expire), and under
//     bounded drift rho the widening rate `rho * epoch_length` keeps the
//     carried bound sound.  Edges older than `max_carry_epochs` are
//     dropped — at some point a guess is worse than admitting partition.
//
// Both are deterministic: coverage follows topology order and the carry
// memory iterates in sorted key order, so fixed seeds keep producing
// identical epoch reports.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/metrics.hpp"
#include "delaymodel/assignment.hpp"
#include "delaymodel/link_stats.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// Observation census of one direction of one link in one epoch.
struct DirectedCoverage {
  ProcessorId from{0};
  ProcessorId to{0};
  std::size_t observations{0};

  /// True when the link is known to have *disappeared* (churn: a link-down
  /// window covers the census instant).  An absent direction's
  /// observations may be non-zero — they are stale traffic from before the
  /// link vanished — but it does not count as observed: a gone link must
  /// not masquerade as a quiet-but-healthy one.
  bool absent{false};
};

/// Per-link observation coverage of an epoch: two entries per topology link
/// (a->b then b->a, in topology order).
struct LinkCoverage {
  std::vector<DirectedCoverage> directions;
  std::size_t observed_directions{0};
  std::size_t total_directions{0};
  std::size_t absent_directions{0};

  /// Fraction of link directions with at least one observation; 1 on an
  /// edgeless topology.
  double fraction() const {
    return total_directions == 0
               ? 1.0
               : static_cast<double>(observed_directions) /
                     static_cast<double>(total_directions);
  }
};

/// Census the traffic of one epoch against the model's topology.
LinkCoverage link_coverage(const SystemModel& model,
                           const LinkTraffic& traffic);

/// The same census read off per-direction counts (the extremes path of
/// ingest_views); equal to the traffic census of the same pairs.
LinkCoverage link_coverage(const SystemModel& model, const LinkStats& stats);

/// Churn-aware census: `link_down` flags (topology link order, e.g. from
/// cs::byz::links_down_at) mark links dark at the census instant; both
/// directions of a dark link are counted absent rather than observed,
/// whatever stale traffic the window still holds.  (vector<bool> because
/// that is what the census producers return; span cannot view it.)
LinkCoverage link_coverage(const SystemModel& model,
                           const LinkTraffic& traffic,
                           const std::vector<bool>& link_down);

/// Staleness policy for carrying m̃ls edges across epochs.
struct StalenessOptions {
  /// Off by default: an unobserved link is simply an absent edge and the
  /// epoch degrades to per-component guarantees.
  bool carry_forward{false};

  /// Widening added per epoch of age to a carried edge's m̃ls weight
  /// (m̃ls is an upper bound, so widening loosens — stays sound under
  /// drift bounded by widen_per_epoch / epoch_length).
  double widen_per_epoch{0.0};

  /// Carried edges older than this many epochs are dropped.
  std::size_t max_carry_epochs{std::numeric_limits<std::size_t>::max()};
};

/// Cross-epoch m̃ls edge memory.  Feed each epoch's freshly estimated m̃ls
/// graph through apply(); edges present in the fresh graph reset their age,
/// edges remembered from earlier epochs but missing now are re-emitted with
/// staleness widening.  Counts carried edges into the
/// "degraded.carried_edges" metric.
class MlsCarry {
 public:
  explicit MlsCarry(StalenessOptions options, Metrics* metrics = nullptr)
      : options_(options), metrics_(metrics) {}

  /// The effective m̃ls graph for this epoch.  With carry_forward off this
  /// is `fresh` unchanged (and nothing is remembered).
  Digraph apply(const Digraph& fresh);

  /// Number of edges carried forward by the last apply() call.
  std::size_t last_carried() const { return last_carried_; }

  void reset();

 private:
  static std::uint64_t key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  struct Remembered {
    double weight{0.0};
    std::size_t age{0};  ///< epochs since last fresh observation
  };

  StalenessOptions options_;
  Metrics* metrics_;
  // std::map: deterministic iteration order => deterministic edge order in
  // the emitted graph (Howard tie-breaks depend on it).
  std::map<std::uint64_t, Remembered> memory_;
  std::size_t node_count_{0};
  std::size_t last_carried_{0};
};

}  // namespace cs
