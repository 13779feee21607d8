// CompositeConstraint: Theorem 5.6 — under an intersection of local
// assumption sets, mls is the min of the per-set mls values, and
// admissibility is the conjunction.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "delaymodel/constraint.hpp"
#include "oracles/numeric_mls.hpp"

namespace cs {
namespace {

std::unique_ptr<LinkConstraint> bounds_and_bias(double lb, double ub,
                                                double bias) {
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 1, lb, ub));
  parts.push_back(make_bias(0, 1, bias));
  return make_composite(0, 1, std::move(parts));
}

TEST(CompositeConstraint, AdmitsIsConjunction) {
  const auto c = bounds_and_bias(0.1, 1.0, 0.2);
  EXPECT_TRUE(c->admits({{0.5}, {0.6}}));
  EXPECT_FALSE(c->admits({{0.05}, {0.1}}));  // bounds violated
  EXPECT_FALSE(c->admits({{0.3}, {0.9}}));   // bias violated
}

TEST(CompositeConstraint, MlsIsMinOfParts) {
  const auto composite = bounds_and_bias(0.1, 1.0, 0.2);
  const auto bounds = make_bounds(0, 1, 0.1, 1.0);
  const auto bias = make_bias(0, 1, 0.2);

  DirectedStats ab, ba;
  ab.add(0.5);
  ab.add(0.62);
  ba.add(0.55);

  for (ProcessorId p : {0u, 1u}) {
    const DirectedStats& pq = (p == 0) ? ab : ba;
    const DirectedStats& qp = (p == 0) ? ba : ab;
    const ExtReal expect =
        min(bounds->mls(p, pq, qp), bias->mls(p, pq, qp));
    EXPECT_EQ(composite->mls(p, pq, qp), expect);
  }
}

TEST(CompositeConstraint, EndpointsMustMatch) {
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 2, 0.0, 1.0));
  EXPECT_THROW(make_composite(0, 1, std::move(parts)), InvalidAssumption);
}

TEST(CompositeConstraint, EmptyRejected) {
  EXPECT_THROW(make_composite(0, 1, {}), InvalidAssumption);
}

TEST(CompositeConstraint, Describe) {
  EXPECT_EQ(bounds_and_bias(0.0, 1.0, 0.5)->describe(),
            "bounds[0,1]/[0,1] & bias[0.5]");
}

class CompositeMlsProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompositeMlsProperty, ClosedFormMatchesNumericOracle) {
  // The decomposition theorem's min-composition must agree with the oracle
  // applied to the *joint* admissibility predicate.
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const double lb = rng.uniform(0.0, 0.5);
    const double ub = lb + rng.uniform(0.2, 1.5);
    const double bias = rng.uniform(0.05, ub - lb);
    const auto c = bounds_and_bias(lb, ub, bias);

    // Admissible generator: window of width <= bias inside [lb, ub].
    const double center = rng.uniform(lb + bias / 2.0, ub - bias / 2.0);
    LinkDelays obs;
    const auto n_ab = 1 + rng.uniform_int(3);
    const auto n_ba = 1 + rng.uniform_int(3);
    for (std::uint64_t i = 0; i < n_ab; ++i)
      obs.a_to_b.push_back(
          rng.uniform(center - bias / 2.0, center + bias / 2.0));
    for (std::uint64_t i = 0; i < n_ba; ++i)
      obs.b_to_a.push_back(
          rng.uniform(center - bias / 2.0, center + bias / 2.0));
    ASSERT_TRUE(c->admits(obs));

    DirectedStats ab, ba;
    for (double d : obs.a_to_b) ab.add(d);
    for (double d : obs.b_to_a) ba.add(d);

    for (ProcessorId p : {0u, 1u}) {
      const DirectedStats& pq = (p == 0) ? ab : ba;
      const DirectedStats& qp = (p == 0) ? ba : ab;
      const ExtReal closed = c->mls(p, pq, qp);
      const ExtReal numeric = numeric_mls(*c, obs, p, /*cap=*/1e6);
      ASSERT_TRUE(closed.is_finite());
      EXPECT_NEAR(closed.finite(), numeric.finite(), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeMlsProperty,
                         ::testing::Values(3, 6, 9, 12));

}  // namespace
}  // namespace cs
