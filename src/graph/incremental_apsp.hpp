// Delta-aware all-pairs shortest paths for the epoch pipeline.
//
// Periodic re-synchronization (core/epochs) recomputes GLOBAL ESTIMATES on
// every epoch boundary, but consecutive epochs differ in only the few m̃ls
// edges whose link statistics absorbed new traffic — with growing view
// prefixes the estimates even change monotonically (d̃min only shrinks, so
// m̃ls only shrinks).  Recomputing the full APSP closure from scratch wastes
// nearly all of that work.
//
// IncrementalApsp keeps the previous epoch's distance matrix and applies the
// edge-weight delta, Ramalingam–Reps style (restricted recompute of the
// affected part only):
//
//   * weight *decreases* (and new edges) are exact rank-one min-plus
//     updates: D(i,j) <- min(D(i,j), D(i,u) + w' + D(v,j)), O(n^2) per
//     changed edge — no path that uses the cheaper edge more than once can
//     win while the graph has no negative cycle.  Each row is the
//     branch-free select row[j] = (via + tail[j] < row[j]) ? via + tail[j]
//     : row[j] (SSE2 minpd where available), the same float expression and
//     comparison as the branchy loop it replaced, so every entry is bit for
//     bit what that loop gives (tests/oracles/delta_apsp.hpp);
//   * weight *increases* (and removed edges, i.e. weight -> +inf) dirty
//     exactly the rows whose old shortest paths were tight through the
//     changed edge; only those rows are recomputed, by Dijkstra under the
//     previous epoch's Johnson potentials (still valid: weights only grew);
//   * when the dirty fraction exceeds a threshold — or the node set changed
//     — it falls back to a full Johnson rebuild, so the worst case never
//     loses to from-scratch by more than the diff scan.
//
// Counter accounting contract (pinned by the path-audit cases in
// tests/graph/incremental_apsp_test.cpp):
//
//   * "apsp.full_rebuilds"       — every rebuild(), whether called directly,
//                                  as a cold/resize bootstrap, or as the
//                                  dirty fallback;
//   * "apsp.dirty_fallbacks"     — only the too-dirty bailout (always paired
//                                  with a full_rebuilds tick);
//   * "apsp.incremental_updates" — every update() that kept the matrix,
//                                  including the no-change fast path;
//   * "apsp.from_scratch_runs" is NOT ours: global_shift_estimates ticks it
//     per full closure, so a bench arm that recomputes from scratch each
//     epoch reports from_scratch_runs == epochs with incremental_hit_rate 0
//     by design (see BENCH_pipeline.json's from_scratch arms).
//
// All per-step scratch (delta lists aside) lives in a private EpochArena
// that is reset and reused each call, so steady-state updates perform no
// per-call heap allocation beyond the condensed edge map.
//
// Equivalence with the from-scratch closure (to float tolerance) is enforced
// by tests/graph/incremental_apsp_test.cpp and the epoch-sequence property
// test in tests/core/incremental_pipeline_test.cpp.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "graph/arena.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

struct IncrementalApspOptions {
  /// Full-rebuild fallback threshold: when weight increases dirty more than
  /// this fraction of the rows, restricted recompute loses its advantage.
  double max_dirty_fraction{0.25};
};

class IncrementalApsp {
 public:
  explicit IncrementalApsp(IncrementalApspOptions options = {},
                           Metrics* metrics = nullptr)
      : options_(options), metrics_(metrics) {}

  /// Unconditional full rebuild (Johnson).  Returns false iff `g` has a
  /// negative cycle, in which case the state is invalidated.
  bool rebuild(const Digraph& g);

  /// Applies `g` as a delta against the previously accepted graph, reusing
  /// the previous distance matrix where possible; falls back to rebuild()
  /// when cold, when the node count changed, or when too dirty.  Returns
  /// false iff `g` has a negative cycle (state invalidated).
  bool update(const Digraph& g);

  bool valid() const { return valid_; }

  /// The APSP closure of the last accepted graph.  Only meaningful while
  /// valid().
  const DistanceMatrix& distances() const { return dist_; }

  /// What the last update() did — consumed by metrics and benches.
  struct StepStats {
    /// Which code path the last call took; the audit handle for the counter
    /// contract above (exactly one path per call).
    enum class Path {
      kNone,             ///< no call yet
      kColdBuild,        ///< update() with no prior accepted state
      kResizeBuild,      ///< update() after the node count changed
      kExplicitRebuild,  ///< rebuild() called directly
      kDirtyFallback,    ///< update() bailed out: too many dirty rows
      kNoChange,         ///< update() with an empty delta
      kIncremental,      ///< update() applied the delta in place
    };

    Path path{Path::kNone};
    bool incremental{false};
    std::size_t decreased_edges{0};
    std::size_t increased_edges{0};
    std::size_t dirty_rows{0};
  };
  const StepStats& last_step() const { return last_step_; }

  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

 private:
  /// Condensed edge map (parallel edges collapsed to the minimum weight);
  /// the unit the delta is computed over.
  using EdgeMap = std::unordered_map<std::uint64_t, double>;

  static EdgeMap condense(const Digraph& g);
  void refresh_potentials();

  IncrementalApspOptions options_;
  Metrics* metrics_{nullptr};

  bool valid_{false};
  std::size_t n_{0};
  EdgeMap weights_;              // last accepted graph, condensed
  DistanceMatrix dist_;
  std::vector<double> potential_;  // Johnson potentials for weights_
  StepStats last_step_;
  EpochArena arena_;  // per-step scratch; reset each rebuild()/update()
};

}  // namespace cs
