#include "oracles/adversary.hpp"

#include <gtest/gtest.h>

#include "core/local_estimates.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(Adversary, AnchorStaysPut) {
  Digraph mls(3);
  mls.add_edge(0, 1, 0.5);
  mls.add_edge(1, 0, 0.5);
  mls.add_edge(1, 2, 0.25);
  mls.add_edge(2, 1, 0.25);
  const auto shifts = adversarial_shifts(mls, 0, 2.0);
  EXPECT_DOUBLE_EQ(shifts[0].sec, 0.0);
  EXPECT_DOUBLE_EQ(shifts[1].sec, 0.25);       // 0.5 / gamma
  EXPECT_DOUBLE_EQ(shifts[2].sec, 0.375);      // (0.5 + 0.25) / gamma
}

TEST(Adversary, UnreachableNodesUnshifted) {
  Digraph mls(3);
  mls.add_edge(0, 1, 0.5);  // node 2 isolated
  const auto shifts = adversarial_shifts(mls, 0, 1.5);
  EXPECT_DOUBLE_EQ(shifts[2].sec, 0.0);
}

TEST(Adversary, ProducesAdmissibleEquivalentExecution) {
  const SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.06);
  const SimResult sim = test::run_ping_pong(model, 77, 0.2);
  const Digraph mls = local_shifts_actual(model, sim.execution);
  for (NodeId anchor = 0; anchor < 5; ++anchor) {
    const auto shifts = adversarial_shifts(mls, anchor, 1.000001);
    const Execution stretched = sim.execution.shifted(shifts);
    EXPECT_TRUE(stretched.equivalent_to(sim.execution));
    EXPECT_TRUE(model.admissible(stretched)) << "anchor " << anchor;
  }
}

TEST(Adversary, GammaScalesLinearly) {
  Digraph mls(2);
  mls.add_edge(0, 1, 1.0);
  mls.add_edge(1, 0, 1.0);
  const auto near = adversarial_shifts(mls, 0, 1.0 + 1e-9);
  const auto far = adversarial_shifts(mls, 0, 4.0);
  EXPECT_NEAR(near[1].sec, 1.0, 1e-8);
  EXPECT_DOUBLE_EQ(far[1].sec, 0.25);
}

}  // namespace
}  // namespace cs
