// Zone-hierarchical synchronization (core/zones.hpp): plan constructors,
// Thm 5.5/5.6 composition properties against the dense pipeline, the
// thread-count determinism contract, and the zoned realized-precision
// splitter.
#include "core/zones.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

constexpr double kTol = 1e-9;

// ---------------------------------------------------------------------------
// Plan constructors

TEST(ZonePlanBuilders, AssignmentDensifiesSparseLabels) {
  // Labels 7, 7, 1000000, 7, 3: first-appearance densification must map
  // them to 0, 0, 1, 0, 2 without allocating label-sized arrays.
  const std::vector<std::uint32_t> raw{7, 7, 1000000, 7, 3};
  const ZonePlan plan = zone_plan_from_assignment(raw);
  EXPECT_EQ(plan.count, 3u);
  EXPECT_EQ(plan.zone_of,
            (std::vector<std::uint32_t>{0, 0, 1, 0, 2}));
  const auto members = plan.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(members[1], (std::vector<NodeId>{2}));
  EXPECT_EQ(members[2], (std::vector<NodeId>{4}));
}

TEST(ZonePlanBuilders, AssignmentRejectsEmpty) {
  EXPECT_THROW(zone_plan_from_assignment({}), Error);
}

TEST(ZonePlanBuilders, GreedyBfsCoversEveryNodeOnce) {
  Rng rng(99);
  const Topology topo = make_connected_gnp(40, 0.15, rng);
  for (const std::size_t target : {1u, 5u, 13u, 40u, 100u}) {
    const ZonePlan plan = greedy_bfs_zones(topo, target);
    ASSERT_EQ(plan.zone_of.size(), topo.node_count);
    ASSERT_GE(plan.count, 1u);
    std::vector<std::size_t> sizes(plan.count, 0);
    for (const std::uint32_t z : plan.zone_of) {
      ASSERT_LT(z, plan.count);
      ++sizes[z];
    }
    for (std::size_t z = 0; z < plan.count; ++z) {
      EXPECT_GE(sizes[z], 1u) << "empty zone " << z;
      EXPECT_LE(sizes[z], target);
    }
  }
  // target >= n on a connected graph is a single zone.
  EXPECT_EQ(greedy_bfs_zones(topo, topo.node_count).count, 1u);
}

TEST(ZonePlanBuilders, DatacenterZonesMatchRackStructure) {
  // dc 2 3 4: nodes 0..1 spines, 2..4 ToRs, 5..16 hosts rack-major.
  const ZonePlan plan = datacenter_zones(2, 3, 4);
  EXPECT_EQ(plan.count, 5u);  // 2 spine singletons + 3 racks
  EXPECT_EQ(plan.zone_of.size(), 2u + 3u + 12u);
  EXPECT_EQ(plan.zone_of[0], 0u);
  EXPECT_EQ(plan.zone_of[1], 1u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(plan.zone_of[2 + r], 2u + r);          // ToR
    for (std::size_t h = 0; h < 4; ++h)
      EXPECT_EQ(plan.zone_of[5 + r * 4 + h], 2u + r);  // its hosts
    EXPECT_EQ(plan.leaders[2 + r], NodeId(2 + r));   // ToR leads its rack
  }
}

// ---------------------------------------------------------------------------
// Composition vs the dense pipeline

SyncOptions serial_opts() {
  SyncOptions opts;
  opts.threads = 1;
  return opts;
}

TEST(ZonedSync, SingleZoneIsBitIdenticalToDense) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    SystemModel model = test::bounded_model(make_ring(9), 0.002, 0.01);
    const SimResult run = test::run_ping_pong(model, seed, 0.3);
    const auto views = run.execution.views();

    const SyncOutcome dense = synchronize(model, views, serial_opts());
    ASSERT_TRUE(dense.bounded());

    const std::vector<std::uint32_t> all_zero(9, 0);
    const ZonePlan plan = zone_plan_from_assignment(all_zero);
    const ZonedOutcome zoned =
        synchronize_zoned(model, views, plan, serial_opts());

    ASSERT_TRUE(zoned.bounded());
    // Exact equality, not near: one zone rooted at the gauge root IS the
    // dense pipeline (same APSP, same SHIFTS, no re-gauge).
    EXPECT_EQ(zoned.composed_bound.finite(),
              dense.optimal_precision.finite());
    ASSERT_EQ(zoned.corrections.size(), dense.corrections.size());
    for (std::size_t p = 0; p < dense.corrections.size(); ++p)
      EXPECT_EQ(zoned.corrections[p], dense.corrections[p]) << "p=" << p;
  }
}

TEST(ZonedSync, ComposedBoundContainsDenseAndRealized) {
  // Property sweep: small graphs, zones in {1, 2, 4} (via target sizes).
  // Invariants: composed bound >= dense Ã^max, realized precision of the
  // composed corrections <= composed bound, per-zone Thm 4.6 gaps ~ 0.
  for (const std::uint64_t seed : {5u, 11u, 42u}) {
    Rng rng(seed);
    const Topology topo = make_connected_gnp(24, 0.2, rng);
    SystemModel model = test::bounded_model(topo, 0.002, 0.01);
    const SimResult run = test::run_ping_pong(model, seed * 7 + 1, 0.3);
    const auto views = run.execution.views();
    const auto starts = run.execution.start_times();

    const SyncOutcome dense = synchronize(model, views, serial_opts());
    ASSERT_TRUE(dense.bounded());
    const double dense_opt = dense.optimal_precision.finite();

    for (const std::size_t target : {24u, 12u, 6u}) {
      const ZonePlan plan = greedy_bfs_zones(topo, target);
      const ZonedOutcome zoned =
          synchronize_zoned(model, views, plan, serial_opts());
      ASSERT_TRUE(zoned.bounded())
          << "target " << target << " zones " << plan.count;
      const double bound = zoned.composed_bound.finite();
      EXPECT_GE(bound, dense_opt - kTol)
          << "composed bound below the instance optimum";
      const double realized =
          realized_precision(starts, zoned.corrections);
      EXPECT_LE(realized, bound + kTol) << "composed bound unsound";
      for (const ZoneStats& z : zoned.zones) {
        EXPECT_TRUE(z.bounded);
        EXPECT_LE(z.thm46_gap, kTol);
      }
      EXPECT_LE(zoned.quotient_thm46_gap, kTol);
      // Gauge: the composed corrections are rooted like the dense ones.
      EXPECT_EQ(zoned.corrections[0], 0.0);
    }
  }
}

TEST(ZonedSync, ThreadCountDoesNotChangeABit) {
  Rng rng(7);
  const Topology topo = make_connected_gnp(32, 0.15, rng);
  SystemModel model = test::bounded_model(topo, 0.002, 0.01);
  const SimResult run = test::run_ping_pong(model, 123, 0.25);
  const auto views = run.execution.views();
  const ZonePlan plan = greedy_bfs_zones(topo, 8);

  SyncOptions serial = serial_opts();
  SyncOptions wide = serial_opts();
  wide.threads = 4;
  const ZonedOutcome a = synchronize_zoned(model, views, plan, serial);
  const ZonedOutcome b = synchronize_zoned(model, views, plan, wide);

  ASSERT_EQ(a.corrections.size(), b.corrections.size());
  for (std::size_t p = 0; p < a.corrections.size(); ++p)
    EXPECT_EQ(a.corrections[p], b.corrections[p]) << "p=" << p;
  EXPECT_EQ(a.composed_bound.value(), b.composed_bound.value());
  ASSERT_EQ(a.zones.size(), b.zones.size());
  for (std::size_t z = 0; z < a.zones.size(); ++z)
    EXPECT_EQ(a.zones[z].a_max, b.zones[z].a_max);
}

// ---------------------------------------------------------------------------
// Realized-precision splitter

TEST(ZoneRealizedPrecision, MatchesBruteForceSplit) {
  Rng rng(404);
  const std::size_t n = 37;
  std::vector<std::uint32_t> assignment(n);
  std::vector<RealTime> starts(n);
  std::vector<double> x(n);
  for (std::size_t p = 0; p < n; ++p) {
    assignment[p] = static_cast<std::uint32_t>(rng.uniform_int(5));
    starts[p] = RealTime{rng.uniform(0.0, 3.0)};
    x[p] = rng.uniform(-1.0, 1.0);
  }
  const ZonePlan plan = zone_plan_from_assignment(assignment);
  const ZoneRealized got = realized_precision_zoned(starts, x, plan);

  double overall = 0.0, intra = 0.0, cross = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      const double d = (starts[p].sec - x[p]) - (starts[q].sec - x[q]);
      overall = std::max(overall, d);
      if (plan.zone_of[p] == plan.zone_of[q])
        intra = std::max(intra, d);
      else
        cross = std::max(cross, d);
    }
  EXPECT_DOUBLE_EQ(got.overall, overall);
  EXPECT_DOUBLE_EQ(got.intra, intra);
  EXPECT_DOUBLE_EQ(got.cross, cross);
  EXPECT_EQ(got.overall, realized_precision(starts, x));
}

TEST(ZoneRealizedPrecision, RejectsSizeMismatch) {
  const ZonePlan plan =
      zone_plan_from_assignment(std::vector<std::uint32_t>{0, 0, 1});
  const std::vector<RealTime> starts{RealTime{0.0}, RealTime{1.0}};
  const std::vector<double> x{0.0, 0.0, 0.0};
  EXPECT_THROW(realized_precision_zoned(starts, x, plan), InvalidExecution);
}

}  // namespace
}  // namespace cs
