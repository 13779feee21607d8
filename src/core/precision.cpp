#include "core/precision.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"

namespace cs {

namespace {

void check_sizes(std::size_t have, std::size_t want, const char* what) {
  if (have != want)
    throw InvalidExecution(std::string(what) + ": corrections size " +
                           std::to_string(have) + " does not match " +
                           std::to_string(want));
}

void check_corrections(std::span<const double> x) {
  for (std::size_t p = 0; p < x.size(); ++p)
    if (std::isnan(x[p]))
      throw InvalidExecution("guaranteed precision: NaN correction at " +
                             std::to_string(p));
}

/// Row p of ρ̄(x) for guaranteed_precision*: an unordered term comes from
/// a NaN m̃s entry (refused, naming the first) or from two infinite
/// corrections (dropped, as the max fold drops it).
RowSkew checked_row(const DistanceMatrix& ms, std::span<const double> x,
                    std::size_t p) {
  const std::size_t n = ms.size();
  const RowSkew r = row_skew(ms.data() + p * n, x.data(), p, n);
  if (r.unordered)
    for (std::size_t q = 0; q < n; ++q)
      if (q != p && std::isnan(ms.at(p, q)))
        throw InvalidExecution("guaranteed precision: m̃s(" +
                               std::to_string(p) + ", " + std::to_string(q) +
                               ") is NaN");
  return r;
}

}  // namespace

RowSkew row_skew(const double* row, const double* x, std::size_t p,
                 std::size_t n) {
  RowSkew r{-kInfDist, false, false};
  const double xp = x[p];
  for (const ColumnRange c : off_diagonal(p, n)) {
    std::size_t q = c.lo;
#if defined(__SSE2__)
    const __m128d vxp = _mm_set1_pd(xp);
    const __m128d inf = _mm_set1_pd(kInfDist);
    const __m128d neg_inf = _mm_set1_pd(-kInfDist);
    __m128d acc = _mm_set1_pd(r.max);
    __m128d unordered = _mm_setzero_pd();
    __m128d infinite = _mm_setzero_pd();
    for (; q + 2 <= c.hi; q += 2) {
      const __m128d m = _mm_loadu_pd(row + q);
      const __m128d is_inf = _mm_cmpeq_pd(m, inf);
      const __m128d t = _mm_add_pd(_mm_sub_pd(m, vxp), _mm_loadu_pd(x + q));
      // A +inf entry folds −inf, which leaves the max as it was.
      const __m128d term =
          _mm_or_pd(_mm_andnot_pd(is_inf, t), _mm_and_pd(is_inf, neg_inf));
      unordered = _mm_or_pd(unordered, _mm_cmpunord_pd(term, term));
      infinite = _mm_or_pd(infinite, is_inf);
      acc = _mm_max_pd(term, acc);  // term > acc ? term : acc
    }
    alignas(16) double lane[2];
    _mm_store_pd(lane, acc);
    r.max = lane[1] > lane[0] ? lane[1] : lane[0];
    r.unordered |= _mm_movemask_pd(unordered) != 0;
    r.infinite |= _mm_movemask_pd(infinite) != 0;
#endif
    for (; q < c.hi; ++q) {
      if (row[q] == kInfDist) {
        r.infinite = true;
        continue;
      }
      const double term = row[q] - xp + x[q];
      r.unordered |= std::isnan(term);
      r.max = term > r.max ? term : r.max;
    }
  }
  return r;
}

double realized_precision(std::span<const RealTime> starts,
                          std::span<const double> x) {
  check_sizes(x.size(), starts.size(), "realized precision");
  if (starts.size() < 2) return 0.0;
  // max_{p,q} |d_p − d_q| over discrepancies d = start − correction is
  // max d − min d: O(n), and bit-identical to the pairwise scan (the
  // extremal pair's subtraction is the same IEEE operation).
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < starts.size(); ++p) {
    const double d = starts[p].sec - x[p];
    if (std::isnan(d))
      throw InvalidExecution(
          "realized precision: non-finite discrepancy at processor " +
          std::to_string(p));
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return hi - lo;
}

ExtReal guaranteed_precision(const DistanceMatrix& ms_estimates,
                             std::span<const double> x) {
  const std::size_t n = ms_estimates.size();
  check_sizes(x.size(), n, "guaranteed precision");
  check_corrections(x);
  // Every row is scanned before an infinite pair answers +inf, so a NaN
  // entry anywhere is refused.
  double worst = 0.0;
  bool unbounded = false;
  for (std::size_t p = 0; p < n; ++p) {
    const RowSkew r = checked_row(ms_estimates, x, p);
    unbounded |= r.infinite;
    worst = std::max(worst, r.max);
  }
  return unbounded ? ExtReal::infinity() : ExtReal{worst};
}

double guaranteed_precision_finite(const DistanceMatrix& ms_estimates,
                                   std::span<const double> x) {
  const std::size_t n = ms_estimates.size();
  check_sizes(x.size(), n, "guaranteed precision");
  check_corrections(x);
  // Only the infinite direction is skipped: a one-way-bounded pair still
  // contributes its finite m̃s(p,q) − x_p + x_q term, and dropping it
  // under-reports the worst-case skew.
  double worst = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    worst = std::max(worst, checked_row(ms_estimates, x, p).max);
  return worst;
}

}  // namespace cs
