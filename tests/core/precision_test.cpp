#include "core/precision.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/precision.hpp"

namespace cs {
namespace {

TEST(Precision, RealizedZeroWhenPerfectlyCorrected) {
  const std::vector<RealTime> starts{RealTime{1.0}, RealTime{3.5}};
  const std::vector<double> x{1.0, 3.5};
  EXPECT_DOUBLE_EQ(realized_precision(starts, x), 0.0);
}

TEST(Precision, RealizedIsMaxPairwise) {
  const std::vector<RealTime> starts{RealTime{0.0}, RealTime{1.0},
                                     RealTime{5.0}};
  const std::vector<double> x{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(realized_precision(starts, x), 5.0);
}

TEST(Precision, RealizedSymmetricInSign) {
  const std::vector<RealTime> starts{RealTime{0.0}, RealTime{2.0}};
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{0.0, 4.0};  // overcorrect the other way
  EXPECT_DOUBLE_EQ(realized_precision(starts, a), 2.0);
  EXPECT_DOUBLE_EQ(realized_precision(starts, b), 2.0);
}

TEST(Precision, GuaranteedFormula) {
  // ρ̄(x) = max_{p≠q} [ m̃s(p,q) - x_p + x_q ].
  DistanceMatrix ms(2);
  ms.at(0, 1) = 0.3;
  ms.at(1, 0) = 0.5;
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(guaranteed_precision(ms, zero).finite(), 0.5);
  const std::vector<double> x{0.0, 0.1};  // balances the two pairs
  EXPECT_DOUBLE_EQ(guaranteed_precision(ms, x).finite(), 0.4);
}

TEST(Precision, GuaranteedInfiniteWhenPairUnbounded) {
  DistanceMatrix ms(2);
  ms.at(0, 1) = 0.3;  // ms(1,0) stays +inf
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_TRUE(guaranteed_precision(ms, zero).is_pos_inf());
  // The finite-restricted variant keeps the finite direction's term —
  // regression: it used to skip the pair entirely when *either* direction
  // was infinite, under-reporting the worst-case skew of a one-way-bounded
  // link as 0.
  EXPECT_DOUBLE_EQ(guaranteed_precision_finite(ms, zero), 0.3);
}

TEST(Precision, GuaranteedFiniteSkipsOnlyTheInfiniteDirection) {
  DistanceMatrix ms(3);
  ms.at(0, 1) = 0.3;
  ms.at(1, 0) = 0.1;
  ms.at(0, 2) = 9.0;  // (0,2) one-way only: the finite direction counts
  const std::vector<double> zero(3, 0.0);
  EXPECT_DOUBLE_EQ(guaranteed_precision_finite(ms, zero), 9.0);
  // Corrections can discharge the one-way term like any other.
  const std::vector<double> x{0.0, 0.0, -8.8};
  EXPECT_DOUBLE_EQ(guaranteed_precision_finite(ms, x), 0.3);
}

TEST(Precision, GuaranteedFiniteOneWayBoundedLinkRegression) {
  // One-way-bounded link p0 -> p1 (e.g. beacon traffic heard in one
  // direction only): m̃s(0,1) finite, m̃s(1,0) = +inf.  The worst-case skew
  // under x = 0 is exactly m̃s(0,1), not 0.
  DistanceMatrix ms(2);
  ms.at(0, 1) = 5.0;
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(guaranteed_precision_finite(ms, zero), 5.0);
}

TEST(Precision, SingleProcessor) {
  const std::vector<RealTime> starts{RealTime{4.0}};
  const std::vector<double> x{0.0};
  EXPECT_DOUBLE_EQ(realized_precision(starts, x), 0.0);
  EXPECT_DOUBLE_EQ(guaranteed_precision(DistanceMatrix(1), x).finite(), 0.0);
}

TEST(Precision, EmptyAndSingletonAreZeroNotNaN) {
  // Regression: singleton / empty components (a crashed-away leader, a
  // spine with no rack) must report a *defined* precision of 0, never the
  // NaN or -inf an empty max-fold used to produce.
  EXPECT_DOUBLE_EQ(realized_precision({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(
      guaranteed_precision(DistanceMatrix(0), std::vector<double>{})
          .finite(),
      0.0);
  EXPECT_DOUBLE_EQ(
      guaranteed_precision_finite(DistanceMatrix(1), std::vector<double>{0.0}),
      0.0);
}

TEST(Precision, RealizedRejectsSizeMismatch) {
  const std::vector<RealTime> starts{RealTime{0.0}, RealTime{1.0}};
  const std::vector<double> x{0.0};
  EXPECT_THROW(realized_precision(starts, x), InvalidExecution);
}

TEST(Precision, RealizedRejectsNaNCorrections) {
  const std::vector<RealTime> starts{RealTime{0.0}, RealTime{1.0}};
  const std::vector<double> x{0.0,
                              std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(realized_precision(starts, x), InvalidExecution);
}

TEST(Precision, GuaranteedRejectsMismatchAndNaN) {
  DistanceMatrix ms(2);
  ms.at(0, 1) = 0.3;
  ms.at(1, 0) = 0.5;
  EXPECT_THROW(guaranteed_precision(ms, std::vector<double>{0.0}),
               InvalidExecution);
  EXPECT_THROW(guaranteed_precision_finite(ms, std::vector<double>{0.0}),
               InvalidExecution);
  const std::vector<double> nan_x{
      0.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(guaranteed_precision(ms, nan_x), InvalidExecution);
  EXPECT_THROW(guaranteed_precision_finite(ms, nan_x), InvalidExecution);
}

TEST(Precision, GuaranteedRejectsNaNEstimate) {
  // A NaN m̃s entry is a broken estimate, as compute_shifts says of the
  // same matrix; max() used to drop its term and report 0.5.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DistanceMatrix ms(3);
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t q = 0; q < 3; ++q)
      if (p != q) ms.at(p, q) = 0.5;
  ms.at(0, 2) = nan;
  const std::vector<double> zero(3, 0.0);
  for (const bool finite : {false, true}) {
    try {
      if (finite)
        guaranteed_precision_finite(ms, zero);
      else
        guaranteed_precision(ms, zero);
      FAIL() << "NaN accepted, finite " << finite;
    } catch (const InvalidExecution& e) {
      EXPECT_NE(std::string(e.what()).find("(0, 2)"), std::string::npos)
          << e.what();
    }
  }
  // Refused before an infinite pair can answer +inf, wherever the two sit.
  ms.at(0, 2) = 0.5;
  ms.at(0, 1) = kInfDist;
  ms.at(2, 1) = nan;
  EXPECT_THROW(guaranteed_precision(ms, zero), InvalidExecution);
  EXPECT_THROW(guaranteed_precision_finite(ms, zero), InvalidExecution);
  // The diagonal is never read.
  DistanceMatrix diag(2);
  diag.at(0, 1) = 0.3;
  diag.at(1, 0) = 0.5;
  diag.at(1, 1) = nan;
  const std::vector<double> zero2(2, 0.0);
  EXPECT_EQ(guaranteed_precision(diag, zero2).finite(), 0.5);
  EXPECT_EQ(guaranteed_precision_finite(diag, zero2), 0.5);
}

TEST(Precision, MatchesPerTermLoopsBitForBit) {
  // The two-lane row kernel against the per-term loops it replaced: every
  // n from 1 to 67 (so both parities on each side of the diagonal), +inf
  // in a row's lane pairs, in its scalar tail and on the diagonal, integer
  // entries for ties and zeros of both signs (so a row's maximum can be a
  // zero of either sign), and spreads of x that leave every term negative.
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const double tie_entries[] = {-1.0, -0.0, 0.0, 1.0};
  Rng rng(2024);
  for (std::size_t n = 1; n <= 67; ++n)
    for (int trial = 0; trial < 6; ++trial) {
      const bool ties = trial % 3 == 0;
      const double spread = trial % 3 == 2 ? 50.0 : 1.0;
      DistanceMatrix ms(n);
      std::vector<double> x(n);
      for (std::size_t p = 0; p < n; ++p) {
        x[p] = ties ? tie_entries[1 + rng.uniform_int(2)]
                    : rng.uniform(-spread, spread);
        for (std::size_t q = 0; q < n; ++q)
          ms.at(p, q) = ties ? tie_entries[rng.uniform_int(4)]
                             : rng.uniform(-1.0, 1.0);
      }
      const std::size_t p = rng.uniform_int(n);
      if (trial >= 3) ms.at(p, p) = kInfDist;
      if (trial == 4 && n >= 3) {
        // The last column of row p sits in a scalar tail when the columns
        // after the diagonal are odd in number; the first column of a row
        // past 1 sits in a lane pair.
        const std::size_t tail_row = (n % 2 == 0) ? 0 : 1;
        ms.at(tail_row, n - 1) = kInfDist;
        ms.at(n - 1, 0) = kInfDist;
      }
      if (trial == 5 && n >= 2) {
        const std::size_t q = (p + 1 + rng.uniform_int(n - 1)) % n;
        ms.at(p, q) = kInfDist;
      }
      const ExtReal got = guaranteed_precision(ms, x);
      const ExtReal want = reference_guaranteed_precision(ms, x);
      ASSERT_EQ(got.is_pos_inf(), want.is_pos_inf())
          << "n " << n << " trial " << trial;
      if (!want.is_pos_inf()) {
        EXPECT_EQ(bits(got.finite()), bits(want.finite()))
            << "n " << n << " trial " << trial;
      }
      EXPECT_EQ(bits(guaranteed_precision_finite(ms, x)),
                bits(reference_guaranteed_precision_finite(ms, x)))
          << "n " << n << " trial " << trial;
    }
}

}  // namespace
}  // namespace cs
