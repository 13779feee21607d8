#include "graph/incremental_apsp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "graph/johnson.hpp"
#include "oracles/delta_apsp.hpp"

namespace cs {
namespace {

void expect_matrices_match(const DistanceMatrix& got,
                           const DistanceMatrix& want, double tol = 1e-12) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    for (std::size_t j = 0; j < got.size(); ++j) {
      const double a = got.at(i, j);
      const double b = want.at(i, j);
      if (a == kInfDist || b == kInfDist) {
        EXPECT_EQ(a, b) << "(" << i << "," << j << ")";
      } else {
        EXPECT_NEAR(a, b, tol) << "(" << i << "," << j << ")";
      }
    }
}

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 6.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 2.0);
  return g;
}

TEST(IncrementalApsp, ColdUpdateEqualsRebuild) {
  const Digraph g = diamond();
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_FALSE(inc.last_step().incremental);  // cold start = rebuild
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeDecreaseIsIncrementalAndExact) {
  Digraph g = diamond();
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));

  g.set_weight(1, 0.5);  // 0->2 cheaper
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  EXPECT_EQ(inc.last_step().decreased_edges, 1u);
  EXPECT_EQ(inc.last_step().increased_edges, 0u);
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeIncreaseRecomputesOnlyAffectedRows) {
  Digraph g = diamond();
  // Threshold of 1.0: never fall back, exercise the restricted recompute.
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/1.0});
  ASSERT_TRUE(inc.update(g));

  g.set_weight(0, 9.0);  // 0->1 was on shortest paths out of 0 and 3
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  EXPECT_EQ(inc.last_step().increased_edges, 1u);
  EXPECT_GT(inc.last_step().dirty_rows, 0u);
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeRemovalSplitsReachability) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.distances().at(2, 1), 2.0);

  Digraph cut(3);  // drop 2->0: node 2 can no longer reach anyone
  cut.add_edge(0, 1, 1.0);
  cut.add_edge(1, 2, 1.0);
  ASSERT_TRUE(inc.update(cut));
  expect_matrices_match(inc.distances(), *johnson(cut));
  EXPECT_EQ(inc.distances().at(2, 0), kInfDist);
  EXPECT_EQ(inc.distances().at(2, 1), kInfDist);
  EXPECT_EQ(inc.distances().at(2, 2), 0.0);
}

TEST(IncrementalApsp, EdgeInsertionConnectsComponents) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 2, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.distances().at(0, 3), kInfDist);

  g.add_edge(1, 2, 0.5);
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  expect_matrices_match(inc.distances(), *johnson(g));
  EXPECT_NEAR(inc.distances().at(0, 3), 2.5, 1e-12);
}

TEST(IncrementalApsp, NegativeWeightsSupported) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, -1.0);
  g.add_edge(2, 0, 0.5);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  expect_matrices_match(inc.distances(), *johnson(g));

  g.set_weight(0, 0.6);  // decrease; cycle weight stays 0.6-1.0+0.5 = 0.1
  ASSERT_TRUE(inc.update(g));
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, DecreaseCreatingNegativeCycleIsRejected) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));

  g.set_weight(0, -2.0);  // cycle weight -1
  EXPECT_FALSE(inc.update(g));
  EXPECT_FALSE(inc.valid());

  // Recovery: a consistent graph rebuilds cleanly.
  g.set_weight(0, 1.0);
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.valid());
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, NodeCountChangeFallsBackToRebuild) {
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(diamond()));
  Digraph bigger(5);
  bigger.add_edge(0, 4, 1.0);
  ASSERT_TRUE(inc.update(bigger));
  EXPECT_FALSE(inc.last_step().incremental);
  expect_matrices_match(inc.distances(), *johnson(bigger));
}

TEST(IncrementalApsp, LargeDeltaFallsBackToRebuild) {
  Rng rng(11);
  const std::size_t n = 12;
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v)
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0));
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/0.25});
  ASSERT_TRUE(inc.update(g));

  // Increase every ring edge: all rows dirty, way past the threshold.
  Digraph heavier(n);
  for (const Edge& e : g.edges())
    heavier.add_edge(e.from, e.to, e.weight + 1.0);
  Metrics metrics;
  inc.set_metrics(&metrics);
  ASSERT_TRUE(inc.update(heavier));
  EXPECT_FALSE(inc.last_step().incremental);
  EXPECT_EQ(metrics.counter("apsp.dirty_fallbacks"), 1u);
  expect_matrices_match(inc.distances(), *johnson(heavier));
}

TEST(IncrementalApsp, MetricsCountersTrackUpdateKinds) {
  Metrics metrics;
  IncrementalApsp inc(IncrementalApspOptions{}, &metrics);
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));              // rebuild
  g.set_weight(2, 0.25);                   // decrease -> incremental
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 1u);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 1u);
}

using Path = IncrementalApsp::StepStats::Path;

/// Counter-accounting audit: exactly one Path per call, pinned per
/// perturbation type, with the counters ticking in lockstep.  This is the
/// regression net for the "from_scratch_runs: 50 / incremental_hit_rate: 0"
/// question in BENCH_pipeline.json's from-scratch arms: those arms never
/// call update() at all (they run global_shift_estimates, which ticks
/// "apsp.from_scratch_runs"), so an IncrementalApsp driven through update()
/// must never tick that counter — asserted below.
TEST(IncrementalApspPath, EveryBranchReportsItsPath) {
  Metrics metrics;
  IncrementalApsp inc(IncrementalApspOptions{}, &metrics);
  EXPECT_EQ(inc.last_step().path, Path::kNone);

  // Cold start.
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kColdBuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 1u);

  // Identical graph: empty delta.
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kNoChange);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 1u);

  // Single decrease: in-place delta.
  g.set_weight(2, 0.25);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kIncremental);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 2u);

  // Node count change.
  Digraph bigger(5);
  bigger.add_edge(0, 4, 1.0);
  ASSERT_TRUE(inc.update(bigger));
  EXPECT_EQ(inc.last_step().path, Path::kResizeBuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 2u);

  // Direct rebuild.
  ASSERT_TRUE(inc.rebuild(bigger));
  EXPECT_EQ(inc.last_step().path, Path::kExplicitRebuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 3u);

  // Driving the delta path never ticks the from-scratch pipeline counter:
  // that one belongs to global_shift_estimates (see BENCH_pipeline.json).
  EXPECT_EQ(metrics.counter("apsp.from_scratch_runs"), 0u);
}

TEST(IncrementalApspPath, DirtyFallbackReportsItsPathAndBothCounters) {
  Metrics metrics;
  Rng rng(17);
  const std::size_t n = 12;
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v)
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0));
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/0.25},
                      &metrics);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kColdBuild);

  Digraph heavier(n);
  for (const Edge& e : g.edges())
    heavier.add_edge(e.from, e.to, e.weight + 1.0);
  ASSERT_TRUE(inc.update(heavier));
  EXPECT_EQ(inc.last_step().path, Path::kDirtyFallback);
  EXPECT_EQ(metrics.counter("apsp.dirty_fallbacks"), 1u);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 2u);  // cold + fallback
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 0u);
}

TEST(IncrementalApspPath, IncreaseWithinThresholdStaysIncremental) {
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/1.0});
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));
  g.set_weight(0, 9.0);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kIncremental);
  EXPECT_GT(inc.last_step().dirty_rows, 0u);
}

/// Randomized equivalence sweep: random sparse digraphs under random
/// single-edge perturbations (reweight both ways, remove, insert) must track
/// the from-scratch closure exactly.
TEST(IncrementalApspProperty, RandomPerturbationSequencesMatchJohnson) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t n = 4 + rng.uniform_int(12);
    // Base: a ring (guaranteed cycle) plus random chords.
    std::vector<Edge> edges;
    for (NodeId v = 0; v < n; ++v)
      edges.push_back(
          {v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0)});
    const std::size_t chords = rng.uniform_int(2 * n);
    for (std::size_t c = 0; c < chords; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
      if (a != b) edges.push_back({a, b, rng.uniform(0.1, 1.0)});
    }

    auto build = [&] {
      Digraph g(n);
      for (const Edge& e : edges) g.add_edge(e.from, e.to, e.weight);
      return g;
    };

    // Odd seeds force the restricted recompute path even for huge deltas;
    // even seeds exercise the default fallback policy.
    IncrementalApsp inc(
        IncrementalApspOptions{seed % 2 == 1 ? 1.0 : 0.25});
    ASSERT_TRUE(inc.update(build()));

    for (int epoch = 0; epoch < 12; ++epoch) {
      switch (rng.uniform_int(4)) {
        case 0: {  // tighten one edge (the realistic epoch delta)
          Edge& e = edges[rng.uniform_int(edges.size())];
          e.weight *= rng.uniform(0.3, 1.0);
          break;
        }
        case 1: {  // loosen one edge
          Edge& e = edges[rng.uniform_int(edges.size())];
          e.weight *= rng.uniform(1.0, 3.0);
          break;
        }
        case 2: {  // flip a link to unbounded (remove)
          if (edges.size() > 1)
            edges.erase(edges.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.uniform_int(edges.size())));
          break;
        }
        default: {  // new finite link
          const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
          const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
          if (a != b) edges.push_back({a, b, rng.uniform(0.1, 1.0)});
          break;
        }
      }
      const Digraph g = build();
      ASSERT_TRUE(inc.update(g)) << "seed " << seed << " epoch " << epoch;
      const auto oracle = johnson(g);
      ASSERT_TRUE(oracle.has_value());
      expect_matrices_match(inc.distances(), *oracle, 1e-11);
    }
  }
}

/// Single-edge decreases through update(), each checked against the
/// branchy loop on the previous matrix: the branch-free rows must leave
/// every entry bit for bit as it does, +inf included.  Weights under random
/// potentials are negative in places without a negative cycle, and sparse
/// graphs leave pairs unreachable.  Even seeds draw every weight on a
/// 1/64 grid, where all path sums are exact, so a decrease can close a
/// zero-weight cycle without rounding making it negative; odd seeds draw
/// plain doubles and keep every cycle through the lowered edge above 1e-3.
TEST(IncrementalApsp, BranchFreeRowsMatchTheBranchyLoop) {
  std::size_t zero_cycles = 0, negative = 0, unreachable = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(5000 + seed);
    const bool exact = seed % 2 == 0;
    auto draw = [&](double lo, double hi) {
      const double x = rng.uniform(lo, hi);
      return exact ? std::round(64.0 * x) / 64.0 : x;
    };
    const std::size_t n = 3 + rng.uniform_int(31);  // odd and even rows
    std::vector<double> h(n);
    for (double& x : h) x = draw(-1.0, 1.0);
    std::map<std::pair<NodeId, NodeId>, double> weights;
    for (std::size_t e = rng.uniform_int(3 * n); e > 0; --e) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
      if (a != b) weights[{a, b}] = draw(0.02, 1.0) + h[a] - h[b];
    }
    auto build = [&] {
      Digraph g(n);
      for (const auto& [key, w] : weights) g.add_edge(key.first, key.second, w);
      return g;
    };

    IncrementalApsp inc;
    ASSERT_TRUE(inc.update(build()));
    DistanceMatrix ref = inc.distances();
    for (int step = 0; step < 24; ++step) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
      if (a == b) continue;
      const auto it = weights.find({a, b});
      const double old_w = it == weights.end() ? kInfDist : it->second;
      const double back = ref.at(b, a);
      double w = old_w == kInfDist ? draw(-1.0, 1.0)
                                   : old_w - draw(0.0, 0.5);
      bool closes_zero_cycle = false;
      if (back != kInfDist && exact) {
        closes_zero_cycle = w + back < 0.0 || rng.uniform_int(4) == 0;
        if (closes_zero_cycle) w = -back;
      } else if (back != kInfDist && w + back < 1e-3) {
        w = 1e-3 - back;
      }
      if (!(w < old_w)) continue;
      zero_cycles += closes_zero_cycle;
      weights[{a, b}] = w;

      reference_lower_edge(ref, a, b, w);
      ASSERT_TRUE(inc.update(build()));
      ASSERT_EQ(inc.last_step().path,
                IncrementalApsp::StepStats::Path::kIncremental);
      ASSERT_EQ(inc.last_step().decreased_edges, 1u);
      ASSERT_EQ(inc.last_step().increased_edges, 0u);
      const DistanceMatrix& got = inc.distances();
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(i, j)),
                    std::bit_cast<std::uint64_t>(ref.at(i, j)))
              << "seed " << seed << " step " << step << " (" << i << ","
              << j << ")";
          negative += ref.at(i, j) < 0.0;
          unreachable += ref.at(i, j) == kInfDist;
        }
    }
  }
  EXPECT_GT(zero_cycles, 0u);
  EXPECT_GT(negative, 0u);
  EXPECT_GT(unreachable, 0u);
}

}  // namespace
}  // namespace cs
