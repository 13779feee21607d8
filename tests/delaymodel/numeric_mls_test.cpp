#include "oracles/numeric_mls.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cs {
namespace {

TEST(ShiftLinkDelays, SignConvention) {
  // Shifting q = b w.r.t. p = a by s: a->b delays shrink, b->a grow.
  const LinkDelays obs{{1.0}, {2.0}};
  const LinkDelays shifted = shift_link_delays(obs, /*p=*/0, /*a=*/0, 0.25);
  EXPECT_NEAR(shifted.a_to_b[0], 0.75, 1e-12);
  EXPECT_NEAR(shifted.b_to_a[0], 2.25, 1e-12);
  // Mirrored when p = b.
  const LinkDelays mirrored = shift_link_delays(obs, /*p=*/1, /*a=*/0, 0.25);
  EXPECT_NEAR(mirrored.a_to_b[0], 1.25, 1e-12);
  EXPECT_NEAR(mirrored.b_to_a[0], 1.75, 1e-12);
}

TEST(NumericMls, KnownBoundsAnswer) {
  const auto c = make_bounds(0, 1, 1.0, 4.0);
  // Forward slack = 2 - 1 = 1, reverse slack = 4 - 3 = 1 -> mls = 1.
  const ExtReal m = numeric_mls(*c, {{2.0}, {3.0}}, 0);
  EXPECT_NEAR(m.finite(), 1.0, 1e-6);
}

TEST(NumericMls, UnboundedReportedAsInfinity) {
  const auto c = make_lower_bound_only(0, 1, 0.0);
  // Shifting p=1 (i.e. q=0): 1->0 delays shrink (lb 0 eventually binds at
  // s=delay), 0->1 grow without limit.  With no 1->0 traffic, unbounded.
  const ExtReal m = numeric_mls(*c, {{0.5}, {}}, 1, /*cap=*/100.0);
  EXPECT_TRUE(m.is_pos_inf());
}

TEST(NumericMls, RequiresAdmissibleStart) {
  const auto c = make_bounds(0, 1, 1.0, 2.0);
  EXPECT_THROW(numeric_mls(*c, {{5.0}, {}}, 0), InvalidAssumption);
}

TEST(NumericMls, ZeroWhenNoSlack) {
  const auto c = make_bounds(0, 1, 1.0, 1.0);
  const ExtReal m = numeric_mls(*c, {{1.0}, {1.0}}, 0);
  EXPECT_NEAR(m.finite(), 0.0, 1e-6);
}

}  // namespace
}  // namespace cs
