// local_estimates + global_estimates on hand-built executions, checking the
// §5/§6 plumbing end to end against closed-form expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/global_estimates.hpp"
#include "core/local_estimates.hpp"
#include "core/synchronizer.hpp"
#include "oracles/floyd_warshall.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

double edge_weight(const Digraph& g, NodeId from, NodeId to) {
  for (EdgeId e : g.out_edges(from))
    if (g.edge(e).to == to) return g.edge(e).weight;
  return kInfDist;
}

TEST(LocalEstimates, TwoNodeBoundsFormula) {
  const double lb = 0.1, ub = 0.6;
  const double s0 = 1.0, s1 = 2.0;
  const Execution e = test::two_node_execution(s0, s1, {0.2, 0.4}, {0.5});
  SystemModel model = test::bounded_model(make_line(2), lb, ub);
  const auto views = e.views();
  const Digraph mls = ingest_views(model, views).mls;

  // m̃ls(0,1) = min(ub - d̃max(1,0), d̃min(0,1) - lb)
  // d̃(0->1) = d + s0 - s1 = d - 1; d̃(1->0) = d + 1.
  const double mls01 = std::min(ub - (0.5 + 1.0), (0.2 - 1.0) - lb);
  const double mls10 = std::min(ub - (0.4 - 1.0), (0.5 + 1.0) - lb);
  EXPECT_NEAR(edge_weight(mls, 0, 1), mls01, 1e-12);
  EXPECT_NEAR(edge_weight(mls, 1, 0), mls10, 1e-12);
}

TEST(LocalEstimates, ActualVsEstimatedDifferByStartSkew) {
  // m̃ls(p,q) = mls(p,q) + S_p - S_q (definition in §5.3).
  const double s0 = 0.5, s1 = 2.5;
  const Execution e = test::two_node_execution(s0, s1, {0.3, 0.7}, {0.4});
  SystemModel model = test::bounded_model(make_line(2), 0.1, 1.0);
  const auto views = e.views();
  const Digraph est = ingest_views(model, views).mls;
  const Digraph act = local_shifts_actual(model, e);
  EXPECT_NEAR(edge_weight(est, 0, 1), edge_weight(act, 0, 1) + s0 - s1,
              1e-12);
  EXPECT_NEAR(edge_weight(est, 1, 0), edge_weight(act, 1, 0) + s1 - s0,
              1e-12);
}

TEST(GlobalEstimates, PathSumsOnALine) {
  // On a 3-node line the only route 0 -> 2 is through 1; Thm 5.5 says
  // m̃s(0,2) = m̃ls(0,1) + m̃ls(1,2).
  SystemModel model = test::bounded_model(make_line(3), 0.01, 0.05);
  const SimResult r = test::run_ping_pong(model, 21, 0.4);
  const auto views = r.execution.views();
  const Digraph mls = ingest_views(model, views).mls;
  const DistanceMatrix ms = global_shift_estimates(mls);
  EXPECT_NEAR(ms.at(0, 2),
              edge_weight(mls, 0, 1) + edge_weight(mls, 1, 2), 1e-9);
  EXPECT_NEAR(ms.at(2, 0),
              edge_weight(mls, 2, 1) + edge_weight(mls, 1, 0), 1e-9);
}

TEST(GlobalEstimates, JohnsonAndFloydAgree) {
  // The pipeline's Johnson closure against the Floyd–Warshall oracle on the
  // same slack-relaxed graph.
  SystemModel model = test::bounded_model(make_ring(6), 0.01, 0.05);
  const SimResult r = test::run_ping_pong(model, 22, 0.4);
  const auto views = r.execution.views();
  const Digraph mls = ingest_views(model, views).mls;
  const DistanceMatrix a = global_shift_estimates(mls);
  const auto b = floyd_warshall(slack_relaxed_mls(mls));
  ASSERT_TRUE(b.has_value());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_NEAR(a.at(i, j), b->at(i, j), 1e-9);
}

TEST(GlobalEstimates, InconsistentViewsThrow) {
  // An execution violating the declared bounds produces a negative m̃ls
  // cycle, which GLOBAL ESTIMATES must reject.
  const Execution e = test::two_node_execution(0.0, 0.0, {0.9}, {0.9});
  SystemModel model = test::bounded_model(make_line(2), 0.1, 0.3);
  const auto views = e.views();
  const Digraph mls = ingest_views(model, views).mls;
  EXPECT_THROW(global_shift_estimates(mls), InvalidAssumption);
}

TEST(Synchronizer, TwoNodeAnalyticPrecision) {
  // Single message each way under [lb, ub]: the optimal precision is
  //   ( min(ub - d2, d1 - lb) + min(ub - d1, d2 - lb) ) / 2.
  const double lb = 0.1, ub = 0.6, d1 = 0.2, d2 = 0.5;
  const Execution e = test::two_node_execution(1.3, 0.4, {d1}, {d2});
  SystemModel model = test::bounded_model(make_line(2), lb, ub);
  const auto views = e.views();
  const SyncOutcome out = synchronize(model, views);
  const double expected =
      (std::min(ub - d2, d1 - lb) + std::min(ub - d1, d2 - lb)) / 2.0;
  EXPECT_NEAR(out.optimal_precision.finite(), expected, 1e-12);
}

TEST(Synchronizer, TwoNodeBiasAnalyticPrecision) {
  // Bias model: mls(p,q) = min(dmin(p,q), (b + dmin(p,q) - dmax(q,p))/2).
  const double b = 0.2, d1 = 0.5, d2 = 0.6;
  const Execution e = test::two_node_execution(2.0, 0.0, {d1}, {d2});
  SystemModel model = test::bias_model(make_line(2), b);
  const auto views = e.views();
  const SyncOutcome out = synchronize(model, views);
  const double mls01 = std::min(d1, (b + d1 - d2) / 2.0);
  const double mls10 = std::min(d2, (b + d2 - d1) / 2.0);
  EXPECT_NEAR(out.optimal_precision.finite(), (mls01 + mls10) / 2.0, 1e-9);
}

TEST(Synchronizer, AlgorithmChoicesAgree) {
  // synchronize()'s Johnson closure and a Floyd–Warshall oracle closure of
  // the same m̃ls graph must produce identical outcomes.
  Rng topo_rng(55);
  SystemModel model = test::bounded_model(
      make_connected_gnp(8, 0.35, topo_rng), 0.005, 0.03);
  const SimResult sim = test::run_ping_pong(model, 17, 0.25);
  const auto views = sim.execution.views();

  const SyncOutcome out = synchronize(model, views);
  const auto oracle_ms = floyd_warshall(slack_relaxed_mls(out.mls_graph));
  ASSERT_TRUE(oracle_ms.has_value());
  const ShiftsResult oracle = compute_shifts(*oracle_ms);
  EXPECT_NEAR(oracle.a_max.finite(), out.optimal_precision.finite(), 1e-9);
  ASSERT_EQ(oracle.corrections.size(), out.corrections.size());
  for (std::size_t p = 0; p < out.corrections.size(); ++p)
    EXPECT_NEAR(oracle.corrections[p], out.corrections[p], 1e-9);
}

TEST(Synchronizer, ValidatesViewOrder) {
  SystemModel model = test::bounded_model(make_line(2), 0.0, 1.0);
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {0.5});
  auto views = e.views();
  std::swap(views[0], views[1]);
  EXPECT_THROW(synchronize(model, views), InvalidExecution);
  views.pop_back();
  std::vector<View> one{views[0]};
  EXPECT_THROW(synchronize(model, one), InvalidExecution);
}

TEST(Synchronizer, OneWayTrafficBoundsVsLowerBoundOnly) {
  // Same one-directional traffic; finite upper bounds keep the instance
  // bounded, lower-bound-only assumptions do not.
  const Execution e = test::two_node_execution(0.3, 0.9, {0.2, 0.3}, {});
  const auto views = e.views();

  SystemModel bounded = test::bounded_model(make_line(2), 0.1, 0.5);
  const SyncOutcome a = synchronize(bounded, views);
  EXPECT_TRUE(a.bounded());

  SystemModel lower_only = test::lower_bound_model(make_line(2), 0.1);
  const SyncOutcome b = synchronize(lower_only, views);
  EXPECT_FALSE(b.bounded());
  EXPECT_EQ(b.components.component_count, 2u);
}

}  // namespace
}  // namespace cs
