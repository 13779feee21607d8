// SHIFTS (Theorem 4.6) on hand-analyzable instances.
#include "core/shifts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "graph/topology.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

DistanceMatrix matrix2(double ms01, double ms10) {
  DistanceMatrix m(2);
  m.at(0, 1) = ms01;
  m.at(1, 0) = ms10;
  return m;
}

TEST(Shifts, TwoNodeAnalytic) {
  // A^max for two nodes is the 2-cycle mean (m̃s(0,1) + m̃s(1,0)) / 2.
  const ShiftsResult r = compute_shifts(matrix2(0.3, 0.5));
  EXPECT_TRUE(r.bounded());
  EXPECT_NEAR(r.a_max.finite(), 0.4, 1e-12);
  // Corrections: x_0 = 0 (root), x_1 = w(0,1) = A - m̃s(0,1) = 0.1.
  EXPECT_NEAR(r.corrections[0], 0.0, 1e-12);
  EXPECT_NEAR(r.corrections[1], 0.1, 1e-12);
}

TEST(Shifts, TwoNodeNegativeEstimates) {
  // m̃s entries may be negative (large start skew); A^max stays >= 0
  // because ms(0,1) + ms(1,0) >= 0.
  const ShiftsResult r = compute_shifts(matrix2(-2.0, 2.5));
  EXPECT_NEAR(r.a_max.finite(), 0.25, 1e-12);
  EXPECT_NEAR(r.corrections[1], 2.25, 1e-12);
}

TEST(Shifts, SingleProcessor) {
  const DistanceMatrix m(1);
  const ShiftsResult r = compute_shifts(m);
  EXPECT_TRUE(r.bounded());
  EXPECT_NEAR(r.a_max.finite(), 0.0, 1e-12);
  EXPECT_EQ(r.corrections.size(), 1u);
}

TEST(Shifts, ZeroUncertainty) {
  // m̃s(p,q) = -m̃s(q,p): delays fully known; perfect sync achievable.
  const ShiftsResult r = compute_shifts(matrix2(1.5, -1.5));
  EXPECT_NEAR(r.a_max.finite(), 0.0, 1e-12);
  EXPECT_NEAR(r.corrections[1], -1.5, 1e-12);
}

TEST(Shifts, TriangleMaxCycleDominates) {
  // 3 nodes; pairwise 2-cycle means 1.0, but the 3-cycle 0->1->2->0 has
  // mean 3.0 and must dominate.
  DistanceMatrix m(3);
  const double big = 3.0, small = -1.0;
  m.at(0, 1) = big;
  m.at(1, 2) = big;
  m.at(2, 0) = big;
  m.at(1, 0) = small;
  m.at(2, 1) = small;
  m.at(0, 2) = small;
  const ShiftsResult r = compute_shifts(m);
  EXPECT_NEAR(r.a_max.finite(), 3.0, 1e-12);
}

TEST(Shifts, GuaranteedPrecisionEqualsAMax) {
  DistanceMatrix m(3);
  m.at(0, 1) = 0.4;
  m.at(1, 0) = 0.1;
  m.at(1, 2) = 0.2;
  m.at(2, 1) = 0.3;
  m.at(0, 2) = 0.6;
  m.at(2, 0) = 0.05;
  const ShiftsResult r = compute_shifts(m);
  const ExtReal rho = guaranteed_precision(m, r.corrections);
  EXPECT_NEAR(rho.finite(), r.a_max.finite(), 1e-12);
  // SHIFTS reads a bounded matrix in place, diagonal and all; whatever the
  // diagonal holds, the instance stays bounded and no output moves a bit.
  for (const double diagonal : {kInfDist, 1e300, -1e300}) {
    DistanceMatrix d = m;
    for (std::size_t p = 0; p < 3; ++p) d.at(p, p) = diagonal;
    const ShiftsResult rd = compute_shifts(d);
    ASSERT_TRUE(rd.bounded()) << diagonal;
    EXPECT_EQ(rd.a_max.finite(), r.a_max.finite()) << diagonal;
    EXPECT_EQ(rd.corrections, r.corrections) << diagonal;
    EXPECT_EQ(rd.critical_cycle, r.critical_cycle) << diagonal;
    EXPECT_EQ(guaranteed_precision(d, rd.corrections).finite(), rho.finite());
  }
}

TEST(Shifts, RootChoiceIsGaugeOnly) {
  DistanceMatrix m(3);
  m.at(0, 1) = 0.4;
  m.at(1, 0) = 0.1;
  m.at(1, 2) = 0.2;
  m.at(2, 1) = 0.3;
  m.at(0, 2) = 0.6;
  m.at(2, 0) = 0.05;
  const ShiftsResult r0 = compute_shifts(m, 0);
  const ShiftsResult r2 = compute_shifts(m, 2);
  EXPECT_NEAR(r0.a_max.finite(), r2.a_max.finite(), 1e-12);
  const double shift = r0.corrections[0] - r2.corrections[0];
  for (int p = 0; p < 3; ++p)
    EXPECT_NEAR(r0.corrections[p] - r2.corrections[p], shift, 1e-9);
  EXPECT_NEAR(guaranteed_precision(m, r0.corrections).finite(),
              guaranteed_precision(m, r2.corrections).finite(), 1e-9);
}

TEST(Shifts, UnboundedInstanceSplitsIntoComponents) {
  // Pairs {0,1} and {2,3} have finite mutual estimates; across the split
  // only one direction is finite, so the instance is unbounded.
  DistanceMatrix m(4);
  m.at(0, 1) = 0.2;
  m.at(1, 0) = 0.2;
  m.at(2, 3) = 0.4;
  m.at(3, 2) = 0.4;
  m.at(0, 2) = 1.0;  // one-way info only
  m.at(0, 3) = 1.4;
  m.at(1, 2) = 1.0;
  m.at(1, 3) = 1.4;
  const ShiftsResult r = compute_shifts(m);
  EXPECT_FALSE(r.bounded());
  EXPECT_TRUE(r.a_max.is_pos_inf());
  EXPECT_EQ(r.components.component_count, 2u);
  EXPECT_EQ(r.components.component[0], r.components.component[1]);
  EXPECT_EQ(r.components.component[2], r.components.component[3]);
  // Per-component precision is the 2-cycle mean of each pair.
  std::vector<double> amax = r.component_a_max;
  std::sort(amax.begin(), amax.end());
  EXPECT_NEAR(amax[0], 0.2, 1e-12);
  EXPECT_NEAR(amax[1], 0.4, 1e-12);
}

TEST(Shifts, AllIsolatedProcessors) {
  DistanceMatrix m(3);  // all off-diagonal +inf
  const ShiftsResult r = compute_shifts(m);
  EXPECT_FALSE(r.bounded());
  EXPECT_EQ(r.components.component_count, 3u);
  for (double c : r.corrections) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Shifts, EmptyInstanceThrows) {
  EXPECT_THROW(compute_shifts(DistanceMatrix(0)), Error);
}

TEST(Shifts, RootOutOfRangeThrows) {
  EXPECT_THROW(compute_shifts(DistanceMatrix(2), 5), Error);
}

TEST(Shifts, NonFiniteEstimateThrowsInsteadOfGarbageCorrections) {
  // Regression: a NaN m̃s entry (broken upstream estimator) used to slide
  // through — the max-cycle mean went NaN, every relaxation comparison
  // went false, non-root distances stayed +inf, and a release-mode no-op
  // assert let the +inf be stored as a "correction".  The pipeline must
  // refuse with cs::Error instead.
  DistanceMatrix m(3);
  m.at(0, 1) = 0.3;
  m.at(1, 0) = 0.5;
  m.at(0, 2) = 0.2;
  m.at(2, 0) = 0.4;
  m.at(1, 2) = std::numeric_limits<double>::quiet_NaN();
  m.at(2, 1) = 0.1;
  EXPECT_THROW(compute_shifts(m), Error);
}

TEST(Shifts, NonClosureComponentIsRefused) {
  // 0 -> 1 -> 2 -> 0 are finite arcs, so the finite m̃s graph is one
  // strongly connected component holding all three processors, yet
  // m̃s(0, 2) = +inf: no shortest-path closure looks like this.  The
  // instance is unbounded, so SHIFTS compacts the component (never reads
  // the matrix in place) and must refuse it there.
  DistanceMatrix m(3);
  m.at(0, 1) = 0.3;
  m.at(1, 2) = 0.2;
  m.at(2, 0) = 0.4;
  m.at(1, 0) = 0.5;
  m.at(2, 1) = 0.1;
  try {
    compute_shifts(m);
    FAIL() << "a non-closure component was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not a shortest-path closure"),
              std::string::npos)
        << e.what();
  }
}

/// FNV-1a over the bit patterns of `values`.
std::uint64_t bit_digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : values) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Shifts, RingEpochInstanceIsPinnedBitForBit) {
  // The benchmark's ring-epoch instance (ring-256, bounds [1, 50] ms, four
  // ping-pong rounds, start skew up to 0.5 s): SHIFTS at k = 256, where
  // every two-lane pass runs full rows, in place on the bounded matrix.
  // Ã^max, θ and the corrections were recorded before those passes were
  // vectorized; they must not move by one bit.
  struct Pin {
    std::uint64_t seed;
    double a_max;
    std::vector<NodeId> theta;
    std::uint64_t corrections;
  };
  const std::vector<Pin> pins{
      {1, 0x1.7ccccb26f0ba1p-2,
       {125, 249, 120, 243, 113, 236, 107, 230, 100, 224, 92,  220, 86, 212,
        79,  203, 69,  201, 64,  193, 59,  185, 52,  180, 44,  172, 39, 164,
        31,  159, 24,  155, 19,  149, 14,  145, 10,  136, 5,   130, 254},
       0x3884d17185c668c5ull},
      {7919, 0x1.58fd6906f9ad4p-2,
       {6,   130, 11,  133, 15,  138, 19,  142, 23,  145, 26,  149, 31,
        153, 37,  159, 41,  164, 45,  169, 50,  174, 56,  181, 62,  187,
        64,  189, 68,  192, 72,  197, 74,  202, 80,  209, 83,  216, 88,
        222, 91,  226, 97,  232, 101, 237, 106, 240, 110, 247, 114, 252,
        118, 255, 123, 3,   128},
       0xf0aae2124f5438aeull},
  };
  for (const Pin& pin : pins) {
    const SystemModel model =
        test::bounded_model(make_ring(256), 0.001, 0.050);
    const SimResult sim = test::run_ping_pong(model, pin.seed, 0.5, 4);
    const SyncOutcome out = synchronize(model, sim.execution.views());
    ASSERT_TRUE(out.bounded()) << "seed " << pin.seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.optimal_precision.finite()),
              std::bit_cast<std::uint64_t>(pin.a_max))
        << "seed " << pin.seed;
    EXPECT_EQ(out.critical_cycle, pin.theta) << "seed " << pin.seed;
    EXPECT_EQ(bit_digest(out.corrections), pin.corrections)
        << "seed " << pin.seed;
  }
}

TEST(Shifts, FloatNoiseCycleAbsorbedInOneTolerantPass) {
  // Regression for the bump-retry hack: weights w = Ã^max − m̃s put the
  // critical cycle at weight exactly 0, so float rounding can leave it at
  // ~-1 ulp.  The Thm 4.6 certificate tolerance must absorb that without
  // retry loops — observable through metrics: exactly one shifts run, no
  // certificate error, and sound corrections.
  DistanceMatrix m(3);
  // Entries chosen so (a_max - ms) sums round unfavourably: thirds are
  // inexact in binary.
  const double third = 1.0 / 3.0;
  m.at(0, 1) = third;
  m.at(1, 0) = third + 1e-16;
  m.at(0, 2) = 0.1 + third;
  m.at(2, 0) = 0.1 - third;
  m.at(1, 2) = third * 2;
  m.at(2, 1) = 0.2 - third;
  Metrics metrics;
  ShiftsOptions options;
  options.metrics = &metrics;
  const ShiftsResult r = compute_shifts(m, options);
  EXPECT_TRUE(r.bounded());
  EXPECT_EQ(metrics.counter("shifts.runs"), 1u);
  // Soundness: ρ̄(x) = Ã^max for the SHIFTS corrections (to tolerance).
  EXPECT_NEAR(guaranteed_precision(m, r.corrections).finite(),
              r.a_max.finite(), 1e-9);
}

TEST(Shifts, HowardPolicyExposedAndAcceptedAsWarmStart) {
  DistanceMatrix m(3);
  m.at(0, 1) = 0.3;
  m.at(1, 0) = 0.5;
  m.at(0, 2) = 0.2;
  m.at(2, 0) = 0.4;
  m.at(1, 2) = 0.6;
  m.at(2, 1) = 0.1;
  ShiftsOptions cold;
  const ShiftsResult first = compute_shifts(m, cold);
  ASSERT_EQ(first.policy.size(), 3u);

  Metrics metrics;
  ShiftsOptions warm = cold;
  warm.metrics = &metrics;
  warm.warm_policy = &first.policy;
  const ShiftsResult second = compute_shifts(m, warm);
  EXPECT_EQ(metrics.counter("cycle_mean.howard_warm_starts"), 1u);
  EXPECT_NEAR(second.a_max.finite(), first.a_max.finite(), 1e-15);
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_NEAR(second.corrections[p], first.corrections[p], 1e-15);
}

}  // namespace
}  // namespace cs
