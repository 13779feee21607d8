#include "oracles/precision.hpp"

#include <algorithm>

namespace cs {

ExtReal reference_guaranteed_precision(const DistanceMatrix& ms,
                                       std::span<const double> x) {
  const std::size_t n = ms.size();
  ExtReal worst{0.0};
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (ms.at(p, q) == kInfDist) return ExtReal::infinity();
      worst = max(worst, ExtReal{ms.at(p, q) - x[p] + x[q]});
    }
  return worst;
}

double reference_guaranteed_precision_finite(const DistanceMatrix& ms,
                                             std::span<const double> x) {
  const std::size_t n = ms.size();
  double worst = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (ms.at(p, q) == kInfDist) continue;
      worst = std::max(worst, ms.at(p, q) - x[p] + x[q]);
    }
  return worst;
}

}  // namespace cs
