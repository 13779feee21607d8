// Zone-hierarchical synchronization (Theorems 5.5/5.6 composition).
//
// The dense pipeline is O(n·m + n² log n) APSP + O(n³)/O(n·m) SHIFTS per
// epoch — nothing past n ≈ 1k is practical.  The paper's composition
// theorems license a two-level construction that scales to 100k+ agents:
//
//   1. Partition the processors into zones (explicit assignment, greedy BFS
//      clustering, or the natural cluster structure of a datacenter fabric).
//   2. Per zone Z: run GLOBAL ESTIMATES + SHIFTS on the m̃ls subgraph
//      induced by Z, with the zone leader L_Z as gauge root — corrections
//      x with x_{L_Z} = 0 and the zone-optimal bound Ã^max_Z (Thm 4.6).
//      Zones are independent, so these solves shard across the pool with
//      byte-identical results at any thread count.
//   3. Quotient: a digraph on zones where edge A→B carries
//
//         q(A,B) = min over m̃ls edges (u,v), u ∈ A, v ∈ B of
//                  [ m̃s_A(L_A, u) + m̃ls(u,v) + m̃s_B(v, L_B) ]
//
//      — an upper bound on the maximal global shift from L_A to L_B,
//      because each folded term is itself a path bound in the full m̃ls
//      graph (Thm 5.5: shifts compose along paths; Lemma 5.3 telescoping).
//      SHIFTS on the quotient yields leader corrections y.
//   4. Compose: correction(p) = x_p + y_{zone(p)}, re-gauged so the global
//      root's correction is exactly 0.
//
// Soundness: for p ∈ A, q ∈ B the composed corrections guarantee
//
//   ρ̄(p, q) ≤ Ã^max_A + Ã^max_B + ( q̃s(A,B) − y_A + y_B )        (A ≠ B)
//   ρ̄(p, q) ≤ Ã^max_A                                            (A = B)
//
// where q̃s is the quotient's m̃s closure; the reported composed bound is
// the max of these over all zone pairs.  It is an upper bound, generally
// *not* the instance optimum Ã^max — the price of never materializing the
// dense matrix (docs/ZONES.md quantifies the tradeoff).  With a single
// zone the construction degenerates to the dense pipeline bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "core/synchronizer.hpp"
#include "graph/topology.hpp"

namespace cs {

/// A partition of the processors into zones with one designated leader per
/// zone.  Zone ids must be dense (every id in [0, count) non-empty).
struct ZonePlan {
  /// zone_of[v] = zone id of processor v.
  std::vector<std::uint32_t> zone_of;
  std::size_t count{0};

  /// Leader per zone; must be a member of its zone.  Empty = resolved by
  /// synchronize_zoned_mls to the smallest member id, except the zone
  /// containing the gauge root, whose leader becomes the root itself (this
  /// is what makes the single-zone case coincide with the dense pipeline
  /// exactly).
  std::vector<NodeId> leaders;

  /// Nodes of each zone, ascending within a zone.
  std::vector<std::vector<NodeId>> members() const;
};

/// Plan from an explicit node → zone assignment.  Normalizes ids to be
/// dense (first-appearance order); throws cs::Error on an empty assignment.
ZonePlan zone_plan_from_assignment(std::span<const std::uint32_t> zone_of);

/// METIS-style greedy BFS clustering over an undirected link set: repeatedly
/// seed a zone at the smallest unassigned node id and grow it
/// breadth-first (neighbor lists in ascending order) until `target_size`
/// nodes are absorbed or the frontier dies.  Deterministic; every zone is
/// connected in the undirected graph; zone count adapts to the topology.
/// target_size >= 1; target_size >= n yields a single zone.
ZonePlan greedy_bfs_zones(std::size_t node_count,
                          std::span<const std::pair<NodeId, NodeId>> links,
                          std::size_t target_size);
ZonePlan greedy_bfs_zones(const Topology& topo, std::size_t target_size);

/// The natural zone structure of make_datacenter(spines, racks, hosts):
/// one zone per rack (the ToR plus its hosts, ToR as leader) and one
/// singleton zone per spine.  Spines are not linked to each other, so a
/// combined spine zone would be internally disconnected; as singletons each
/// spine contributes Ã^max = 0 and synchronizes through the quotient.
ZonePlan datacenter_zones(std::size_t spines, std::size_t racks,
                          std::size_t hosts);

/// Per-zone diagnostics from a zoned solve.
struct ZoneStats {
  NodeId leader{0};
  std::uint32_t size{0};
  /// False iff the zone's induced m̃ls subgraph is not strongly connected
  /// in the finite part (the zone then contributes +inf to the composed
  /// bound and a_max below is +inf).
  bool bounded{true};
  /// Zone-internal optimal precision Ã^max_Z (Thm 4.6); 0 for singletons.
  double a_max{0.0};
  /// |ρ̄_Z(x) − Ã^max_Z| — the per-zone Theorem 4.6 equality residual
  /// (0 up to float rounding on bounded zones; 0 by convention otherwise).
  double thm46_gap{0.0};
};

struct ZonedOutcome {
  /// Composed correction per processor: x_p + y_{zone(p)}, re-gauged so
  /// corrections[root] == 0.
  std::vector<double> corrections;

  /// The composed guaranteed-precision bound (see file comment); +inf when
  /// any zone is internally unbounded or the quotient is not strongly
  /// connected.  Realized precision is always ≤ this bound; the dense
  /// instance optimum Ã^max is also ≤ this bound.
  ExtReal composed_bound{0.0};

  /// Max over bounded zones of Ã^max_Z (the intra-zone half of the bound).
  double max_zone_a_max{0.0};
  /// True iff every zone is internally bounded.
  bool zones_bounded{true};

  std::vector<ZoneStats> zones;

  /// The leader quotient: digraph on zone ids, its m̃s closure, its SHIFTS
  /// corrections y (per zone) and bound, and the quotient's own Thm 4.6
  /// equality residual.
  Digraph quotient;
  DistanceMatrix quotient_ms;
  std::vector<double> leader_corrections;
  ExtReal quotient_a_max{0.0};
  double quotient_thm46_gap{0.0};

  /// The effective plan (leaders resolved) and the input m̃ls graph.
  ZonePlan plan;
  Digraph mls_graph;

  bool bounded() const { return composed_bound.is_finite(); }
};

/// Zone-hierarchical tail of the pipeline: per-zone GLOBAL ESTIMATES +
/// SHIFTS in parallel, leader quotient solve, Thm 5.5/5.6 composition.
/// options.threads shards the per-zone solves (byte-identical at any
/// thread count).
/// Throws cs::Error if the plan does not cover the graph's nodes.
ZonedOutcome synchronize_zoned_mls(Digraph mls_graph, const ZonePlan& plan,
                                   const SyncOptions& options = {});

/// Views front-end: ingest_views + synchronize_zoned_mls.
ZonedOutcome synchronize_zoned(const SystemModel& model,
                               std::span<const View> views,
                               const ZonePlan& plan,
                               const SyncOptions& options = {});

/// Realized-precision split by zone (ground-truth evaluation).  O(n + Z).
struct ZoneRealized {
  double overall{0.0};  ///< max pairwise discrepancy, all processors
  double intra{0.0};    ///< max over zones of the within-zone discrepancy
  double cross{0.0};    ///< max discrepancy over pairs in different zones
  std::vector<double> per_zone;
};
ZoneRealized realized_precision_zoned(std::span<const RealTime> starts,
                                      std::span<const double> x,
                                      const ZonePlan& plan);

}  // namespace cs
