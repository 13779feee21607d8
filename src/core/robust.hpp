// Robust estimation: GLOBAL ESTIMATES inputs that survive lying agents.
//
// The clean pipeline trusts every d̃ observation and every m̃ls edge.  A
// Byzantine agent (src/byz) corrupts exactly those: noisy stamps corrupt
// individual observations, and consistent per-neighbor lies (equivocation)
// corrupt whole edges while keeping each per-link pair sum — and hence
// every two-cycle — intact, which is what makes them invisible to the
// InvalidAssumption negative-cycle check.  Two drop-in defenses, applied
// in this order by whoever builds the m̃ls graph (the byz harness,
// byz/harness.cpp): trimmed_traffic → mls_graph_from_traffic →
// quorum_validated_mls → synchronize_mls.
//
//   * trimmed folds — per direction, observations whose d̃ deviates from
//     the direction's median by more than `trim_gate` MADs are discarded
//     before the extremes are folded.  Catches white-noise stamp
//     corruption (Behavior::kLieRandom) and delay-spike-like outliers.
//     With honest data the gate never fires (uniform samples stay within
//     1.5 interquartile widths; the gate sits at 6 MADs ≈ 3 half-widths),
//     and a zero MAD keeps everything — so f = 0 is bit-identical to the
//     naive fold, which the property tests pin.
//
//   * quorum validation — an m̃ls edge pair {p, q} counts only when
//     independent routes corroborate it.  The per-pair shift reading
//     θ̃(p, q) = (m̃ls(p,q) − m̃ls(q,p)) / 2 estimates the gauge difference
//     the true clocks define, and that quantity is *route-independent*:
//     along any honest alternative path the edge readings telescope to
//     the same value, up to per-hop estimation slack.  So: examine up to
//     `quorum` interior-vertex-disjoint alternative paths (hop-limited);
//     a path corroborates when its telescoped reading agrees with the
//     direct edge within `quorum_tolerance` per hop; the pair survives
//     only if a majority of examined paths corroborate.  Equivocated
//     edges disagree with every honest route and are dropped; the APSP
//     then routes around the liar, and precision degrades to the honest
//     subgraph's per-component optimum instead of silently violating the
//     bound.  Pairs with no alternative route at all (bridges, trees) are
//     kept — corroboration needs connectivity > 2f, the classical bound,
//     and on a bare cycle f = 2 is information-theoretically
//     unlocalizable (docs/BYZ.md).
#pragma once

#include <cstddef>

#include "common/metrics.hpp"
#include "delaymodel/assignment.hpp"
#include "delaymodel/link_stats.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// Hop limit for quorum validation's alternative paths (path length in
/// edges).
inline constexpr std::size_t kQuorumHops = 4;

struct RobustOptions {
  /// MAD-gated trimming of per-direction d̃ observations before the
  /// extreme folds.
  bool trim{false};

  /// Trim gate in MAD multiples; observations with
  /// |d̃ − median| > trim_gate · MAD are dropped (MAD = 0 keeps all).
  double trim_gate{6.0};

  /// Number of interior-disjoint alternative paths examined per edge pair;
  /// 0 disables quorum validation.  For f liars the classical requirement
  /// is 2f + 1 examined routes (a majority then survives f corrupted
  /// ones).
  std::size_t quorum{0};

  /// Per-hop agreement tolerance in seconds: a route of h hops corroborates
  /// the direct reading when the telescoped θ̃ agree within
  /// quorum_tolerance · (h + 1).  Calibrate to the honest per-edge slack
  /// (the d̃ sampling width; docs/BYZ.md).
  double quorum_tolerance{0.0};

  bool active() const { return trim || quorum > 0; }
};

/// Per-direction MAD-trimmed copy of `traffic` (insertion order kept).
/// With no outliers the result is an element-for-element copy.
LinkTraffic trimmed_traffic(const LinkTraffic& traffic,
                            const SystemModel& model, double trim_gate,
                            Metrics* metrics = nullptr);

/// Quorum-validated copy of the m̃ls graph: edge pairs a majority of
/// examined disjoint routes contradicts are removed (both directions).
/// Edges whose reverse direction is absent, and pairs with no alternative
/// route, are kept unchanged.  Counts removals into
/// "robust.quorum_dropped_edges".
Digraph quorum_validated_mls(const Digraph& mls, const RobustOptions& options,
                             Metrics* metrics = nullptr);

}  // namespace cs
