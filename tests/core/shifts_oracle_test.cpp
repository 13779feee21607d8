// SHIFTS against the paper's own recipe, and against its instrumentation.
//
// compute_shifts runs Howard's policy iteration and a Dijkstra on Howard's
// potential.  The property test below holds it to the textbook pipeline
// on random m̃s closures: Karp's maximum cycle mean for Ã^max and
// Bellman–Ford distances from the root under w = Ã^max − m̃s for the
// corrections, per finiteness component, and on bounded instances a
// critical cycle θ whose mean is Karp's.  It also holds warm-started runs
// to cold ones: the corrections are shortest-path distances, so they must
// not depend on which optimal policy Howard stops at.
//
// The sink test pins that no result depends on whether instrumentation is
// attached.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/epochs.hpp"
#include "core/shifts.hpp"
#include "core/synchronizer.hpp"
#include "core/zones.hpp"
#include "graph/topology.hpp"
#include "oracles/bellman_ford.hpp"
#include "oracles/cycle_mean.hpp"
#include "oracles/floyd_warshall.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

enum class Shape { kRing, kGnp, kComplete };
enum class Variant { kBounded, kOneWayLinks, kTiedCycles };

struct Instance {
  DistanceMatrix ms;
  std::string what;
};

/// An m̃s closure shaped like the pipeline's: m̃ls(p, q) = x_q − x_p + s
/// with per-processor offsets x and non-negative slack s (so every cycle is
/// non-negative, as on an admissible execution), closed by Floyd–Warshall.
///   kOneWayLinks drops one direction of some links, so the finite graph
///     splits into several finiteness components (A^max = +inf).
///   kTiedCycles (complete graphs) gives the 2-cycles {0, 1} and {2, 3} the
///     largest slack and every other arc less than it but more than half
///     of it: the closure keeps every direct arc and exactly those two
///     cycles are critical, with equal means.
Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  const auto shape = static_cast<Shape>(seed % 3);
  // Sizes up to 64; a ring needs at least 3 nodes, the other shapes 2.
  const std::size_t k_min = shape == Shape::kRing ? 3 : 2;
  const std::size_t k = k_min + rng.uniform_int(65 - k_min);
  auto variant = static_cast<Variant>((seed / 3) % 3);
  if (variant == Variant::kTiedCycles && (shape != Shape::kComplete || k < 4))
    variant = Variant::kBounded;

  Topology topo;
  switch (shape) {
    case Shape::kRing:
      topo = make_ring(k);
      break;
    case Shape::kGnp:
      topo = make_connected_gnp(k, 0.2, rng);
      break;
    case Shape::kComplete:
      topo = make_complete(k);
      break;
  }

  std::vector<double> x(k);
  for (double& xi : x) xi = rng.uniform(-0.5, 0.5);
  constexpr double kTopSlack = 0.04;
  auto slack = [&](NodeId p, NodeId q) {
    if (variant != Variant::kTiedCycles) return rng.uniform(0.001, kTopSlack);
    const bool tied = (p < 2 && q < 2) || (p >= 2 && p < 4 && q >= 2 && q < 4);
    return tied ? kTopSlack : rng.uniform(0.55 * kTopSlack, 0.95 * kTopSlack);
  };

  Digraph mls(k);
  for (const auto& [a, b] : topo.links) {
    const bool one_way = variant == Variant::kOneWayLinks &&
                         rng.uniform_int(3) == 0;
    const bool keep_ab = !one_way || rng.uniform_int(2) == 0;
    if (keep_ab) mls.add_edge(a, b, x[b] - x[a] + slack(a, b));
    if (!one_way || !keep_ab) mls.add_edge(b, a, x[a] - x[b] + slack(b, a));
  }
  const auto closure = floyd_warshall(mls);
  EXPECT_TRUE(closure.has_value());
  static const char* const kShapes[] = {"ring", "gnp", "complete"};
  static const char* const kVariants[] = {"bounded", "one-way", "tied"};
  return {*closure, std::string("seed ") + std::to_string(seed) + " k " +
                        std::to_string(k) + " " +
                        kShapes[static_cast<int>(shape)] + " " +
                        kVariants[static_cast<int>(variant)]};
}

TEST(ShiftsOracleProperty, HowardDijkstraMatchesKarpAndBellmanFord) {
  std::size_t multi_component = 0, tied = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const Instance inst = random_instance(seed);
    const DistanceMatrix& ms = inst.ms;
    const std::size_t n = ms.size();
    Rng rng(seed ^ 0x5EEDu);

    ShiftsOptions cold;
    cold.root = static_cast<NodeId>(rng.uniform_int(n));
    const ShiftsResult got = compute_shifts(ms, cold);
    if (got.components.component_count > 1) ++multi_component;
    if (inst.what.ends_with("tied")) ++tied;

    const auto groups = got.components.members();
    ASSERT_EQ(got.component_a_max.size(), groups.size()) << inst.what;
    for (std::size_t c = 0; c < groups.size(); ++c) {
      const auto& members = groups[c];
      const std::size_t k = members.size();
      const std::string ctx = inst.what + " component " + std::to_string(c);
      if (k == 1) {
        EXPECT_EQ(got.corrections[members[0]], 0.0) << ctx;
        continue;
      }
      // Karp on the component's complete m̃s graph.
      Digraph comp(k);
      for (NodeId i = 0; i < k; ++i)
        for (NodeId j = 0; j < k; ++j)
          if (i != j) comp.add_edge(i, j, ms.at(members[i], members[j]));
      const auto karp = max_cycle_mean_karp(comp);
      ASSERT_TRUE(karp.has_value()) << ctx;
      const double a_max = got.component_a_max[c];
      const double tol = shifts_epsilon(*karp);
      EXPECT_NEAR(a_max, *karp, tol) << ctx;
      if (got.bounded()) {
        // θ: a simple cycle of the instance whose mean is Karp's.
        const std::vector<NodeId>& theta = got.critical_cycle;
        ASSERT_GE(theta.size(), 2u) << ctx;
        const std::set<NodeId> distinct(theta.begin(), theta.end());
        EXPECT_EQ(distinct.size(), theta.size()) << ctx;
        EXPECT_LT(*distinct.rbegin(), n) << ctx;
        EXPECT_NEAR(test::cycle_mean_of(ms, theta), *karp, tol) << ctx;
      }

      // Bellman–Ford from the component root on the complete digraph of
      // w = Ã^max − m̃s, Ã^max taken from the oracle.
      Digraph w(k);
      for (NodeId i = 0; i < k; ++i)
        for (NodeId j = 0; j < k; ++j)
          if (i != j) w.add_edge(i, j, *karp - ms.at(members[i], members[j]));
      NodeId root = 0;
      for (NodeId i = 0; i < k; ++i)
        if (members[i] == cold.root) root = i;
      const auto bf = bellman_ford(w, root, tol);
      ASSERT_TRUE(bf.has_value()) << ctx;
      for (NodeId i = 0; i < k; ++i)
        EXPECT_NEAR(got.corrections[members[i]], bf->dist[i], tol)
            << ctx << " member " << members[i];
    }
    if (got.bounded()) {
      // The overall precision is the single component's, on the full
      // instance too.
      ASSERT_EQ(groups.size(), 1u) << inst.what;
      EXPECT_EQ(got.a_max.finite(), got.component_a_max[0]) << inst.what;
    } else {
      EXPECT_TRUE(got.critical_cycle.empty()) << inst.what;
    }

    // Warm starts from an arbitrary policy: Howard may stop at another
    // optimal policy, the corrections may not move beyond float rounding.
    std::vector<NodeId> warm_policy(n);
    for (NodeId p = 0; p < n; ++p) {
      const NodeId q = static_cast<NodeId>(rng.uniform_int(n));
      warm_policy[p] = q == p ? kNoPolicyEdge : q;
    }
    ShiftsOptions warm = cold;
    warm.warm_policy = &warm_policy;
    const ShiftsResult again = compute_shifts(ms, warm);
    ASSERT_EQ(again.component_a_max.size(), got.component_a_max.size());
    for (std::size_t c = 0; c < got.component_a_max.size(); ++c)
      EXPECT_NEAR(again.component_a_max[c], got.component_a_max[c], 1e-12)
          << inst.what;
    for (NodeId p = 0; p < n; ++p)
      EXPECT_NEAR(again.corrections[p], got.corrections[p], 1e-12)
          << inst.what << " processor " << p;
  }
  // The mix must reach the component-split path and the tie path.
  EXPECT_GE(multi_component, 20u);
  EXPECT_GE(tied, 20u);
}

/// Bitwise equality for doubles.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(const ExtReal& a, const ExtReal& b) {
  const double va = a.value(), vb = b.value();
  return std::memcmp(&va, &vb, sizeof(double)) == 0;
}

void expect_same(const SyncOutcome& a, const SyncOutcome& b,
                 const std::string& what) {
  EXPECT_TRUE(bits_equal(a.corrections, b.corrections)) << what;
  EXPECT_TRUE(bits_equal(a.optimal_precision, b.optimal_precision)) << what;
  EXPECT_TRUE(bits_equal(a.component_precision, b.component_precision))
      << what;
  EXPECT_EQ(a.critical_cycle, b.critical_cycle) << what;
}

TEST(ShiftsMetricsSink, ResultsDoNotDependOnTheSink) {
  SystemModel model = test::bounded_model(make_ring(12), 0.002, 0.01);
  const SimResult run = test::run_ping_pong(model, 31, 0.3);
  const auto views = run.execution.views();

  // compute_shifts on a bounded and on an unbounded closure.
  for (std::uint64_t seed : {1u, 4u, 7u}) {
    const Instance inst = random_instance(seed);
    Metrics metrics;
    ShiftsOptions with;
    with.metrics = &metrics;
    const ShiftsResult a = compute_shifts(inst.ms, ShiftsOptions{});
    const ShiftsResult b = compute_shifts(inst.ms, with);
    EXPECT_TRUE(bits_equal(a.corrections, b.corrections)) << inst.what;
    EXPECT_TRUE(bits_equal(a.a_max, b.a_max)) << inst.what;
    EXPECT_TRUE(bits_equal(a.component_a_max, b.component_a_max))
        << inst.what;
    EXPECT_EQ(a.critical_cycle, b.critical_cycle) << inst.what;
    EXPECT_EQ(metrics.counter("shifts.runs"), 1u);
  }

  Metrics metrics;
  SyncOptions with;
  with.metrics = &metrics;
  expect_same(synchronize(model, views), synchronize(model, views, with),
              "synchronize");

  const std::vector<ClockTime> boundaries{ClockTime{0.5}, ClockTime{1.0},
                                          ClockTime{1.5}, ClockTime{10.0}};
  EpochOptions with_epochs;
  with_epochs.sync = with;
  const auto plain = epochal_synchronize_incremental(model, views, boundaries);
  const auto instrumented =
      epochal_synchronize_incremental(model, views, boundaries, with_epochs);
  ASSERT_EQ(plain.size(), instrumented.size());
  for (std::size_t k = 0; k < plain.size(); ++k)
    expect_same(plain[k].sync, instrumented[k].sync,
                "incremental epoch " + std::to_string(k));

  const ZonePlan plan = greedy_bfs_zones(model.topology(), 4);
  const ZonedOutcome zoned = synchronize_zoned(model, views, plan);
  const ZonedOutcome zoned_with = synchronize_zoned(model, views, plan, with);
  EXPECT_TRUE(bits_equal(zoned.corrections, zoned_with.corrections));
  EXPECT_TRUE(bits_equal(zoned.composed_bound, zoned_with.composed_bound));
  const auto zone_bounds = [](const ZonedOutcome& z) {
    std::vector<double> out;
    for (const ZoneStats& st : z.zones) out.push_back(st.a_max);
    return out;
  };
  EXPECT_TRUE(bits_equal(zone_bounds(zoned), zone_bounds(zoned_with)));
  EXPECT_GT(metrics.counter("shifts.runs"), 0u);
}

}  // namespace
}  // namespace cs
