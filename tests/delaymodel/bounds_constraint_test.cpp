// BoundsConstraint: admissibility and the Lemma 6.2 / Cor 6.3 closed form,
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

TEST(BoundsConstraint, AdmitsWithinBounds) {
  const auto c = make_bounds(0, 1, 0.1, 0.5);
  EXPECT_TRUE(c->admits({{0.1, 0.3, 0.5}, {0.2}}));
  EXPECT_FALSE(c->admits({{0.05}, {}}));   // below lb
  EXPECT_FALSE(c->admits({{}, {0.6}}));    // above ub
  EXPECT_TRUE(c->admits({{}, {}}));        // vacuous
}

TEST(BoundsConstraint, AsymmetricDirections) {
  const Interval ab{ExtReal{0.0}, ExtReal{1.0}};
  const Interval ba{ExtReal{2.0}, ExtReal{3.0}};
  const auto c = make_bounds(0, 1, ab, ba);
  EXPECT_TRUE(c->admits({{0.5}, {2.5}}));
  EXPECT_FALSE(c->admits({{2.5}, {0.5}}));
}

TEST(BoundsConstraint, RejectsInvalidConfig) {
  EXPECT_THROW(BoundsConstraint(1, 0, Interval{}, Interval{}),
               InvalidAssumption);  // endpoints out of order
  EXPECT_THROW(
      make_bounds(0, 1, Interval{ExtReal{-0.1}, ExtReal{1.0}}, Interval{}),
      InvalidAssumption);  // negative lower bound
}

TEST(BoundsConstraint, MlsClosedFormBothTermsActive) {
  // mls(p,q) = min( ub(q,p) - dmax(q,p), dmin(p,q) - lb(p,q) ).
  const auto c = make_bounds(0, 1, 1.0, 4.0);
  // Direction p=0: dmin(0,1)=2 => forward slack 2-1=1;
  // reverse dmax(1,0)=3 => slack 4-3=1 -> mls=1.
  EXPECT_DOUBLE_EQ(
      c->mls(0, stats_of({2.0, 2.5}), stats_of({3.0})).finite(), 1.0);
  // Tighter reverse: dmax(1,0)=3.8 => min(0.2, 1.0) = 0.2.
  EXPECT_NEAR(c->mls(0, stats_of({2.0}), stats_of({3.8})).finite(), 0.2,
              1e-12);
}

TEST(BoundsConstraint, MlsInfiniteUpperBound) {
  const auto c = make_lower_bound_only(0, 1, 0.5);
  // Reverse slack infinite; forward slack = dmin - lb.
  EXPECT_NEAR(c->mls(0, stats_of({1.2}), stats_of({0.9})).finite(), 0.7,
              1e-12);
  // No forward traffic either: mls infinite.
  EXPECT_TRUE(c->mls(0, DirectedStats{}, stats_of({0.9})).is_pos_inf());
}

TEST(BoundsConstraint, MlsNoTrafficFiniteUb) {
  const auto c = make_bounds(0, 1, 0.0, 1.0);
  // No messages at all: mls = ub(q,p) - (-inf)?  No: dmax = -inf makes the
  // reverse slack +inf, dmin = +inf makes the forward slack +inf.
  EXPECT_TRUE(c->mls(0, DirectedStats{}, DirectedStats{}).is_pos_inf());
  // Only reverse traffic: mls = ub - dmax finite.
  EXPECT_NEAR(c->mls(0, DirectedStats{}, stats_of({0.4})).finite(), 0.6,
              1e-12);
}

TEST(BoundsConstraint, NoBoundsModelMlsIsDmin) {
  // Cor 6.4 specialization: lb = 0, ub = inf => mls(p,q) = dmin(p,q).
  const auto c = make_no_bounds(0, 1);
  EXPECT_NEAR(c->mls(0, stats_of({0.8, 1.4}), stats_of({2.0})).finite(), 0.8,
              1e-12);
}

TEST(BoundsConstraint, ZeroUncertaintyMlsIsZero) {
  // lb == ub: delays are known exactly; no shift is admissible.
  const auto c = make_bounds(0, 1, 0.3, 0.3);
  EXPECT_NEAR(c->mls(0, stats_of({0.3}), stats_of({0.3})).finite(), 0.0,
              1e-12);
}

class BoundsMlsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsMlsProperty, ClosedFormMatchesNumericOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const double lb = rng.uniform(0.0, 1.0);
    const double ub = lb + rng.uniform(0.01, 2.0);
    const bool infinite_ub = rng.uniform01() < 0.3;
    const auto c = infinite_ub ? make_lower_bound_only(0, 1, lb)
                               : make_bounds(0, 1, lb, ub);
    const double hi = infinite_ub ? lb + 2.0 : ub;

    LinkDelays obs;
    const auto n_ab = 1 + rng.uniform_int(4);
    const auto n_ba = 1 + rng.uniform_int(4);
    for (std::uint64_t i = 0; i < n_ab; ++i)
      obs.a_to_b.push_back(rng.uniform(lb, hi));
    for (std::uint64_t i = 0; i < n_ba; ++i)
      obs.b_to_a.push_back(rng.uniform(lb, hi));

    DirectedStats ab, ba;
    for (double d : obs.a_to_b) ab.add(d);
    for (double d : obs.b_to_a) ba.add(d);

    for (ProcessorId p : {0u, 1u}) {
      const ExtReal closed =
          (p == 0) ? c->mls(0, ab, ba) : c->mls(1, ba, ab);
      const ExtReal numeric = numeric_mls(*c, obs, p, /*cap=*/1e6);
      if (closed.is_pos_inf()) {
        EXPECT_TRUE(numeric.is_pos_inf());
      } else {
        ASSERT_TRUE(numeric.is_finite());
        EXPECT_NEAR(closed.finite(), numeric.finite(), 1e-6)
            << "p=" << p << " lb=" << lb << " ub=" << ub;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsMlsProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class AsymmetricBoundsProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsymmetricBoundsProperty, ClosedFormMatchesNumericOracle) {
  // Directions with independent [lb, ub] intervals — the orientation
  // bookkeeping in BoundsConstraint::mls is what this targets.
  Rng rng(GetParam() * 1009 + 3);
  for (int trial = 0; trial < 30; ++trial) {
    const double lb_ab = rng.uniform(0.0, 1.0);
    const double ub_ab = lb_ab + rng.uniform(0.05, 2.0);
    const double lb_ba = rng.uniform(0.0, 1.5);
    const double ub_ba = lb_ba + rng.uniform(0.05, 1.0);
    const auto c = make_bounds(0, 1, Interval{ExtReal{lb_ab}, ExtReal{ub_ab}},
                               Interval{ExtReal{lb_ba}, ExtReal{ub_ba}});

    LinkDelays obs;
    const auto n_ab = 1 + rng.uniform_int(3);
    const auto n_ba = 1 + rng.uniform_int(3);
    for (std::uint64_t i = 0; i < n_ab; ++i)
      obs.a_to_b.push_back(rng.uniform(lb_ab, ub_ab));
    for (std::uint64_t i = 0; i < n_ba; ++i)
      obs.b_to_a.push_back(rng.uniform(lb_ba, ub_ba));

    DirectedStats ab, ba;
    for (double d : obs.a_to_b) ab.add(d);
    for (double d : obs.b_to_a) ba.add(d);

    for (ProcessorId p : {0u, 1u}) {
      const ExtReal closed =
          (p == 0) ? c->mls(0, ab, ba) : c->mls(1, ba, ab);
      const ExtReal numeric = numeric_mls(*c, obs, p, /*cap=*/1e6);
      ASSERT_TRUE(numeric.is_finite());
      EXPECT_NEAR(closed.finite(), numeric.finite(), 1e-6)
          << "p=" << p << " ab=[" << lb_ab << "," << ub_ab << "] ba=["
          << lb_ba << "," << ub_ba << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsymmetricBoundsProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(BoundsConstraint, Describe) {
  EXPECT_EQ(make_bounds(0, 1, 0.5, 2.0)->describe(),
            "bounds[0.5,2]/[0.5,2]");
  EXPECT_EQ(make_no_bounds(0, 1)->describe(), "bounds[0,+inf]/[0,+inf]");
}

}  // namespace
}  // namespace cs
