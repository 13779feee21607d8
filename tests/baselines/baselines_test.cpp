// Baseline algorithms: correctness on easy instances, and the central
// comparative fact — no baseline ever achieves better guaranteed precision
// than SHIFTS (Theorem 4.4 applied to their correction vectors).
#include <gtest/gtest.h>

#include "baselines/cristian.hpp"
#include "baselines/hmm.hpp"
#include "baselines/lundelius_lynch.hpp"
#include "baselines/midpoint.hpp"
#include "baselines/spanning_tree.hpp"
#include "common/error.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(SpanningTree, PropagatesDeltasExactly) {
  // Line 0-1-2 with known Δ estimates: corrections accumulate.
  const Topology topo = make_line(3);
  const DeltaEstimator delta = [](ProcessorId p, ProcessorId q) {
    // Pretend S = {0.0, 1.0, 3.0}: Δ(p,q) = S_p - S_q.
    const double s[] = {0.0, 1.0, 3.0};
    return s[p] - s[q];
  };
  const auto x = tree_corrections(topo, 0, delta);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
  // Gauge check: S_p - x_p constant.
}

TEST(Cristian, ExactOnSymmetricConstantDelays) {
  // With equal constant delays both ways, the RTT midpoint recovers the
  // skew exactly.
  SystemModel model = test::bounded_model(make_line(3), 0.0, 1.0);
  SimOptions opts;
  opts.start_offsets = {Duration{0.0}, Duration{0.4}, Duration{0.9}};
  opts.seed = 1;
  std::vector<std::unique_ptr<DelaySampler>> samplers;
  samplers.push_back(make_constant_sampler(0.05, 0.05));
  samplers.push_back(make_constant_sampler(0.08, 0.08));
  PingPongParams pp;
  pp.warmup = Duration{1.0};
  const SimResult sim =
      simulate(model, make_ping_pong(pp), std::move(samplers), opts);
  const auto views = sim.execution.views();
  const auto x = cristian_corrections(model, views);
  EXPECT_NEAR(realized_precision(sim.execution.start_times(), x), 0.0,
              1e-9);
}

TEST(Cristian, ThrowsWithoutBidirectionalTraffic) {
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {});
  SystemModel model{make_line(2)};
  const auto views = e.views();
  EXPECT_THROW(cristian_corrections(model, views), InvalidExecution);
}

TEST(Midpoint, DeltaIsIntervalMidpoint) {
  // Bounds [0, 1], single messages d̃(0->1) = 0.6, d̃(1->0) = 0.2:
  // Δ ∈ [-(m̃ls(1,0)), m̃ls(0,1)] = [-(min(1-0.6, 0.2-0)), min(1-0.2, 0.6)]
  //   = [-0.2, 0.6] -> midpoint 0.2.
  const Execution e = test::two_node_execution(0.0, 0.0, {0.6}, {0.2});
  SystemModel model = test::bounded_model(make_line(2), 0.0, 1.0);
  const auto views = e.views();
  const LinkStats stats = LinkStats::estimated_from_views(model, views);
  EXPECT_NEAR(midpoint_delta(model, stats, 0, 1), 0.2, 1e-12);
  EXPECT_NEAR(midpoint_delta(model, stats, 1, 0), -0.2, 1e-12);
}

TEST(Midpoint, FallbackWhenOneSideUnbounded) {
  // Lower-bound-only with one-way traffic: only one endpoint finite.
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {});
  SystemModel model = test::lower_bound_model(make_line(2), 0.1);
  const auto views = e.views();
  const LinkStats stats = LinkStats::estimated_from_views(model, views);
  // m̃ls(0,1) = 0.5 - 0.1 = 0.4 finite; m̃ls(1,0) infinite.
  EXPECT_NEAR(midpoint_delta(model, stats, 0, 1), 0.4, 1e-12);
}

TEST(TreeMidpoint, MatchesOptimalOnTwoNodes) {
  // For a single link, midpoint = SHIFTS up to gauge: guaranteed precision
  // must coincide.
  const Execution e = test::two_node_execution(1.0, 0.2, {0.3, 0.5}, {0.4});
  SystemModel model = test::bounded_model(make_line(2), 0.1, 0.8);
  const auto views = e.views();
  const SyncOutcome opt = synchronize(model, views);
  const auto mid = tree_midpoint_corrections(model, views);
  EXPECT_NEAR(
      guaranteed_precision(opt.ms_estimates, mid).finite(),
      opt.optimal_precision.finite(), 1e-12);
}

TEST(LundeliusLynch, RequiresCompleteTopology) {
  SystemModel model = test::bounded_model(make_ring(4), 0.0, 1.0);
  const SimResult sim = test::run_ping_pong(model, 5, 0.2);
  const auto views = sim.execution.views();
  EXPECT_THROW(lundelius_lynch_corrections(model, views),
               InvalidAssumption);
}

TEST(LundeliusLynch, WorstCaseBoundHolds) {
  // [LL84]: realized precision <= (1 - 1/n)(ub - lb) in every execution.
  const double lb = 0.01, ub = 0.06;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SystemModel model = test::bounded_model(make_complete(4), lb, ub);
    const SimResult sim = test::run_ping_pong(model, seed, 0.3);
    const auto views = sim.execution.views();
    const auto x = lundelius_lynch_corrections(model, views);
    const double bound = (1.0 - 1.0 / 4.0) * (ub - lb);
    EXPECT_LE(realized_precision(sim.execution.start_times(), x),
              bound + 1e-9);
  }
}

TEST(HmmOneShot, UsesOnlyFirstMessages) {
  // Later probes tighten the estimate; the one-shot baseline must ignore
  // them, so feeding extra *better* probes must not change its output.
  const Execution few = test::two_node_execution(0.5, 0.0, {0.5}, {0.5});
  const Execution many =
      test::two_node_execution(0.5, 0.0, {0.5, 0.21}, {0.5, 0.22});
  SystemModel model = test::bounded_model(make_line(2), 0.2, 0.8);
  const auto views_few = few.views();
  const auto views_many = many.views();
  const SyncOutcome a = hmm_one_shot(model, views_few);
  const SyncOutcome b = hmm_one_shot(model, views_many);
  EXPECT_NEAR(a.optimal_precision.finite(), b.optimal_precision.finite(),
              1e-12);
  // The full pipeline, in contrast, improves with the extra probes.
  const SyncOutcome full = synchronize(model, views_many);
  EXPECT_LT(full.optimal_precision.finite(),
            b.optimal_precision.finite() - 1e-9);
}

using DominanceParam = std::tuple<std::string, std::uint64_t>;

class BaselineDominance : public ::testing::TestWithParam<DominanceParam> {
};

TEST_P(BaselineDominance, OptimalIsNeverBeaten) {
  const auto& [topo_name, seed] = GetParam();
  Rng topo_rng(seed);
  SystemModel model =
      test::bounded_model(make_named(topo_name, 5, topo_rng), 0.01, 0.05);
  const bool complete_graph =
      model.topology().link_count() == 5u * 4u / 2u;
  const SimResult sim = test::run_ping_pong(model, seed, 0.3);
  const auto views = sim.execution.views();
  const SyncOutcome opt = synchronize(model, views);
  const double a_max = opt.optimal_precision.finite();

  const auto check = [&](const std::vector<double>& x, const char* name) {
    EXPECT_GE(guaranteed_precision(opt.ms_estimates, x).finite(),
              a_max - 1e-9)
        << name;
  };
  check(cristian_corrections(model, views), "cristian");
  check(tree_midpoint_corrections(model, views), "tree_midpoint");
  check(hmm_one_shot(model, views).corrections, "hmm_one_shot");
  if (complete_graph)
    check(lundelius_lynch_corrections(model, views), "lundelius_lynch");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineDominance,
    ::testing::Combine(::testing::Values("line", "ring", "star", "complete",
                                         "gnp"),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    [](const ::testing::TestParamInfo<DominanceParam>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cs
