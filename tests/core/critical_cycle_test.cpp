// The critical cycle θ that SHIFTS reads off Howard's converged policy
// (ShiftsResult::critical_cycle, passed on as SyncOutcome::critical_cycle).
#include <gtest/gtest.h>

#include <set>

#include "core/shifts.hpp"
#include "core/synchronizer.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(CriticalCycle, TwoNode) {
  DistanceMatrix ms(2);
  ms.at(0, 1) = 0.3;
  ms.at(1, 0) = 0.5;
  const ShiftsResult res = compute_shifts(ms);
  ASSERT_EQ(res.critical_cycle.size(), 2u);
  EXPECT_NEAR(test::cycle_mean_of(ms, res.critical_cycle), 0.4, 1e-12);
}

TEST(CriticalCycle, PicksTheBindingCycle) {
  // Two 2-cycles: {0,1} with mean 1.0 and {2,3} with mean 3.0; the
  // critical cycle must be the latter.
  DistanceMatrix ms(4);
  ms.at(0, 1) = 1.0;
  ms.at(1, 0) = 1.0;
  ms.at(2, 3) = 3.0;
  ms.at(3, 2) = 3.0;
  // Cross entries small so they never bind.
  for (NodeId p : {0u, 1u})
    for (NodeId q : {2u, 3u}) {
      ms.at(p, q) = -5.0;
      ms.at(q, p) = -5.0;
    }
  const ShiftsResult res = compute_shifts(ms);
  const std::vector<NodeId>& cycle = res.critical_cycle;
  const std::set<NodeId> members(cycle.begin(), cycle.end());
  EXPECT_TRUE(members == std::set<NodeId>({2, 3}));
  EXPECT_NEAR(test::cycle_mean_of(ms, cycle), 3.0, 1e-12);
}

TEST(CriticalCycle, SingleProcessorEmpty) {
  EXPECT_TRUE(compute_shifts(DistanceMatrix(1)).critical_cycle.empty());
}

class CriticalCycleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CriticalCycleProperty, WitnessAttainsOptimalPrecision) {
  // On real pipeline outputs, the witness cycle's mean must equal A^max.
  Rng topo_rng(99);
  SystemModel model =
      test::bounded_model(make_connected_gnp(7, 0.4, topo_rng), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, GetParam(), 0.3);
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  ASSERT_TRUE(out.bounded());
  const std::vector<NodeId>& cycle = out.critical_cycle;
  ASSERT_GE(cycle.size(), 2u);
  // All cycle nodes distinct.
  const std::set<NodeId> members(cycle.begin(), cycle.end());
  EXPECT_EQ(members.size(), cycle.size());
  const double a_max = out.optimal_precision.finite();
  EXPECT_NEAR(test::cycle_mean_of(out.ms_estimates, cycle), a_max,
              shifts_epsilon(a_max));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalCycleProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace cs
