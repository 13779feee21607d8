// BiasConstraint: admissibility and the Lemma 6.5 / Cor 6.6 closed form,
// cross-checked against the numeric shift oracle.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "delaymodel/constraint.hpp"
#include "oracles/numeric_mls.hpp"

namespace cs {
namespace {

DirectedStats stats_of(std::initializer_list<double> delays) {
  DirectedStats s;
  for (double d : delays) s.add(d);
  return s;
}

TEST(BiasConstraint, AdmitsWithinBias) {
  const auto c = make_bias(0, 1, 0.2);
  EXPECT_TRUE(c->admits({{0.5, 0.6}, {0.45, 0.55}}));
  EXPECT_FALSE(c->admits({{0.5}, {0.1}}));   // differ by 0.4 > 0.2
  EXPECT_FALSE(c->admits({{0.5}, {0.8}}));   // differ by 0.3 > 0.2
}

TEST(BiasConstraint, RequiresNonNegativeDelays) {
  const auto c = make_bias(0, 1, 10.0);
  EXPECT_FALSE(c->admits({{-0.1}, {0.0}}));
  EXPECT_FALSE(c->admits({{0.1}, {-0.2}}));
}

TEST(BiasConstraint, OneDirectionOnlyIsVacuous) {
  const auto c = make_bias(0, 1, 0.01);
  EXPECT_TRUE(c->admits({{0.5, 5.0}, {}}));  // no opposite pair to compare
}

TEST(BiasConstraint, RejectsNegativeBias) {
  EXPECT_THROW(make_bias(0, 1, -0.5), InvalidAssumption);
}

TEST(BiasConstraint, MlsClosedForm) {
  // mls(p,q) = min( dmin(p,q), (b + dmin(p,q) - dmax(q,p)) / 2 ).
  const auto c = make_bias(0, 1, 0.3);
  // dmin(0,1)=0.5, dmax(1,0)=0.6 -> min(0.5, (0.3+0.5-0.6)/2 = 0.1) = 0.1.
  EXPECT_NEAR(c->mls(0, stats_of({0.5}), stats_of({0.6})).finite(), 0.1,
              1e-12);
  // Non-negativity binds: dmin small, reverse light.
  // dmin=0.05, dmax(q,p)=0.0 -> min(0.05, (0.3+0.05)/2=0.175) = 0.05.
  EXPECT_NEAR(c->mls(0, stats_of({0.05}), stats_of({0.0})).finite(), 0.05,
              1e-12);
}

TEST(BiasConstraint, MlsNoReverseTraffic) {
  const auto c = make_bias(0, 1, 0.3);
  // dmax(q,p) = -inf makes the bias term +inf; non-negativity remains.
  EXPECT_NEAR(c->mls(0, stats_of({0.7}), DirectedStats{}).finite(), 0.7,
              1e-12);
}

TEST(BiasConstraint, MlsNoForwardTraffic) {
  const auto c = make_bias(0, 1, 0.3);
  EXPECT_TRUE(c->mls(0, DirectedStats{}, stats_of({0.5})).is_pos_inf());
}

class BiasMlsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BiasMlsProperty, ClosedFormMatchesNumericOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const double bias = rng.uniform(0.05, 1.0);
    const auto c = make_bias(0, 1, bias);

    // Generate admissible delays: all within a window of width <= bias.
    const double center = rng.uniform(bias / 2.0, 2.0);
    const double lo = std::max(0.0, center - bias / 2.0);
    const double hi = center + bias / 2.0;
    LinkDelays obs;
    const auto n_ab = 1 + rng.uniform_int(4);
    const auto n_ba = 1 + rng.uniform_int(4);
    for (std::uint64_t i = 0; i < n_ab; ++i)
      obs.a_to_b.push_back(rng.uniform(lo, hi));
    for (std::uint64_t i = 0; i < n_ba; ++i)
      obs.b_to_a.push_back(rng.uniform(lo, hi));
    ASSERT_TRUE(c->admits(obs));

    DirectedStats ab, ba;
    for (double d : obs.a_to_b) ab.add(d);
    for (double d : obs.b_to_a) ba.add(d);

    for (ProcessorId p : {0u, 1u}) {
      const ExtReal closed =
          (p == 0) ? c->mls(0, ab, ba) : c->mls(1, ba, ab);
      const ExtReal numeric = numeric_mls(*c, obs, p, /*cap=*/1e6);
      ASSERT_TRUE(closed.is_finite());
      ASSERT_TRUE(numeric.is_finite());
      EXPECT_NEAR(closed.finite(), numeric.finite(), 1e-6)
          << "p=" << p << " bias=" << bias;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiasMlsProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(BiasConstraint, Describe) {
  EXPECT_EQ(make_bias(0, 1, 0.25)->describe(), "bias[0.25]");
}

}  // namespace
}  // namespace cs
