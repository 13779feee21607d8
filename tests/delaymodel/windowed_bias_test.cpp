// WindowedBiasConstraint: the §6.2 "sent around the same time"
// generalization.
#include "delaymodel/windowed_bias.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/numeric_mls.hpp"

namespace cs {
namespace {

TimedObs obs(double send, double delay) { return TimedObs{send, delay}; }

TEST(WindowedBias, PairsInWindowConstrained) {
  const auto c = make_windowed_bias(0, 1, /*bias=*/0.1, /*window=*/1.0);
  // Sent 0.5 apart (inside window), delays differ by 0.3 > 0.1: reject.
  TimedLinkDelays d;
  d.a_to_b = {obs(10.0, 0.5)};
  d.b_to_a = {obs(10.5, 0.2)};
  EXPECT_FALSE(c->admits_timed(d));
}

TEST(WindowedBias, PairsOutsideWindowUnconstrained) {
  const auto c = make_windowed_bias(0, 1, 0.1, 1.0);
  // Same delays, but sent 5 apart: fine.
  TimedLinkDelays d;
  d.a_to_b = {obs(10.0, 0.5)};
  d.b_to_a = {obs(15.0, 0.2)};
  EXPECT_TRUE(c->admits_timed(d));
}

TEST(WindowedBias, NonNegativityAlwaysEnforced) {
  const auto c = make_windowed_bias(0, 1, 10.0, 1.0);
  TimedLinkDelays d;
  d.a_to_b = {obs(10.0, -0.01)};
  EXPECT_FALSE(c->admits_timed(d));
}

TEST(WindowedBias, InfiniteWindowMatchesPlainBias) {
  const double bias = 0.15;
  const auto windowed = make_windowed_bias(0, 1, bias, 1e12);
  const auto plain = make_bias(0, 1, bias);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    TimedLinkDelays d;
    LinkDelays plain_d;
    for (int i = 0; i < 3; ++i) {
      const double da = rng.uniform(0.0, 0.4);
      const double db = rng.uniform(0.0, 0.4);
      d.a_to_b.push_back(obs(rng.uniform(0.0, 100.0), da));
      d.b_to_a.push_back(obs(rng.uniform(0.0, 100.0), db));
      plain_d.a_to_b.push_back(da);
      plain_d.b_to_a.push_back(db);
    }
    EXPECT_EQ(windowed->admits_timed(d), plain->admits(plain_d));
  }
}

TEST(WindowedBias, RejectsNegativeParameters) {
  EXPECT_THROW(make_windowed_bias(0, 1, -0.1, 1.0), InvalidAssumption);
  EXPECT_THROW(make_windowed_bias(0, 1, 0.1, -1.0), InvalidAssumption);
}

TEST(WindowedBias, MlsLargerThanPlainBiasWhenPairsFarApart) {
  // One message each way, sent far apart: the windowed model leaves the
  // pair unconstrained, so only non-negativity binds (mls = dmin forward),
  // while plain bias would clamp much harder.
  const double bias = 0.01;
  const auto windowed = make_windowed_bias(0, 1, bias, 1.0);
  const auto plain = make_bias(0, 1, bias);

  TimedLinkDelays d;
  d.a_to_b = {obs(0.0, 0.5)};
  d.b_to_a = {obs(50.0, 0.4)};

  const ExtReal w_mls = windowed->mls_timed(0, d.a_to_b, d.b_to_a);
  DirectedStats spq, sqp;
  spq.add(0.5);
  sqp.add(0.4);
  const ExtReal p_mls = plain->mls(0, spq, sqp);

  EXPECT_NEAR(w_mls.finite(), 0.5, 1e-9);  // only non-negativity
  EXPECT_LT(p_mls.finite(), w_mls.finite());
}

TEST(WindowedBias, MlsAccountsForPairsEnteringWindowUnderShift) {
  // The subtle case: the pair starts *outside* the window, but shifting q
  // earlier moves it in (Δ + s hits the window), at which point the bias
  // condition must hold.  Δ = send_i - send_j = -3; window [-1, 1] in
  // Δ+s means s in [2, 4] puts the pair in-window.  Delays d_i = 1.0,
  // d_j = 1.0: in-window condition |d_i - d_j - 2s| <= b fails for
  // s in [2, 4] (|{-2s}| = 2s >= 4 > b).  Non-negativity allows s <= 1.0.
  // So the admissible set is [.., 1.0] and mls = 1.0 — the window never
  // actually binds below the ceiling.
  const auto c = make_windowed_bias(0, 1, 0.5, 1.0);
  TimedLinkDelays d;
  d.a_to_b = {obs(10.0, 1.0)};
  d.b_to_a = {obs(13.0, 1.0)};
  EXPECT_NEAR(c->mls_timed(0, d.a_to_b, d.b_to_a).finite(), 1.0, 1e-9);

  // Now give the forward message a large delay so non-negativity is loose
  // (ceiling 5.0); the window region [2, 4] is inadmissible, but [4, 5]
  // is admissible again — the set is disconnected and the supremum is the
  // ceiling 5.0.  (Documented behavior: sup of the whole set.)
  TimedLinkDelays d2;
  d2.a_to_b = {obs(10.0, 5.0)};
  d2.b_to_a = {obs(13.0, 1.0)};
  EXPECT_NEAR(c->mls_timed(0, d2.a_to_b, d2.b_to_a).finite(), 5.0, 1e-9);
}

TEST(WindowedBias, MlsNoForwardTrafficIsInfinite) {
  const auto c = make_windowed_bias(0, 1, 0.1, 1.0);
  TimedLinkDelays d;
  d.b_to_a = {obs(0.0, 0.3)};
  EXPECT_TRUE(c->mls_timed(0, d.a_to_b, d.b_to_a).is_pos_inf());
}

TEST(WindowedBias, UntimedFallbacksAreConservative) {
  const auto c = make_windowed_bias(0, 1, 0.1, 1.0);
  // admits(): stricter than admits_timed (treats all pairs in-window).
  EXPECT_FALSE(c->admits({{0.5}, {0.2}}));
  // mls(): looser than mls_timed (only non-negativity).
  DirectedStats spq, sqp;
  spq.add(0.5);
  sqp.add(0.2);
  EXPECT_NEAR(c->mls(0, spq, sqp).finite(), 0.5, 1e-12);
}

class WindowedBiasProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WindowedBiasProperty, BreakpointSweepMatchesNumericOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const double bias = rng.uniform(0.05, 0.3);
    const double window = rng.uniform(0.5, 3.0);
    const auto c = make_windowed_bias(0, 1, bias, window);

    // Build admissible traffic: clustered sends; delays drift between
    // clusters but stay within `bias` inside each cluster.
    TimedLinkDelays d;
    const int clusters = 1 + static_cast<int>(rng.uniform_int(3));
    for (int k = 0; k < clusters; ++k) {
      const double t0 = k * (window * 4.0);
      const double center = rng.uniform(bias, 1.0);
      const auto n_ab = 1 + rng.uniform_int(2);
      const auto n_ba = 1 + rng.uniform_int(2);
      for (std::uint64_t i = 0; i < n_ab; ++i)
        d.a_to_b.push_back(obs(t0 + rng.uniform(0.0, window / 4.0),
                               center + rng.uniform(-bias / 2, bias / 2)));
      for (std::uint64_t i = 0; i < n_ba; ++i)
        d.b_to_a.push_back(obs(t0 + rng.uniform(0.0, window / 4.0),
                               center + rng.uniform(-bias / 2, bias / 2)));
    }
    ASSERT_TRUE(c->admits_timed(d));

    for (ProcessorId p : {0u, 1u}) {
      const auto& pq = (p == 0) ? d.a_to_b : d.b_to_a;
      const auto& qp = (p == 0) ? d.b_to_a : d.a_to_b;
      const ExtReal sweep = c->mls_timed(p, pq, qp);
      const ExtReal oracle =
          numeric_mls_timed(*c, d, p, /*cap=*/50.0, /*resolution=*/5e-4);
      if (sweep.is_pos_inf()) {
        EXPECT_TRUE(oracle.is_pos_inf());
      } else {
        ASSERT_TRUE(oracle.is_finite());
        EXPECT_NEAR(sweep.finite(), oracle.finite(), 2e-3)
            << "p=" << p << " bias=" << bias << " W=" << window;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedBiasProperty,
                         ::testing::Values(2, 4, 6, 8));

TEST(WindowedBias, CompositeWithBoundsUsesTimedPath) {
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 1, 0.0, 2.0));
  parts.push_back(make_windowed_bias(0, 1, 0.1, 1.0));
  const auto c = make_composite(0, 1, std::move(parts));

  TimedLinkDelays d;
  d.a_to_b = {obs(0.0, 0.5)};
  d.b_to_a = {obs(50.0, 0.2)};  // far apart: windowed part is vacuous
  EXPECT_TRUE(c->admits_timed(d));
  // mls_timed = min(bounds part, windowed part) = min(ub - dmax = 1.8,
  // dmin - lb = 0.5, windowed = 0.5) = 0.5.
  EXPECT_NEAR(c->mls_timed(0, d.a_to_b, d.b_to_a).finite(), 0.5, 1e-9);
}

TEST(WindowedBias, Describe) {
  EXPECT_EQ(make_windowed_bias(0, 1, 0.25, 2.0)->describe(),
            "wbias[0.25,W=2]");
}

}  // namespace
}  // namespace cs
