// The per-term ρ̄(x) loops.
//
// The reference for guaranteed_precision and guaranteed_precision_finite:
// the scalar loops they ran before their rows went through the two-lane
// row_skew kernel, kept as they were.  On matrices without NaN entries the
// library must return these values bit for bit.
#pragma once

#include <span>

#include "common/extreal.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

/// max(0, max over p != q of m̃s(p,q) − x_p + x_q); +inf at the first
/// infinite m̃s(p, q).
ExtReal reference_guaranteed_precision(const DistanceMatrix& ms,
                                       std::span<const double> x);

/// The same over the pairs with finite m̃s(p, q) only.
double reference_guaranteed_precision_finite(const DistanceMatrix& ms,
                                             std::span<const double> x);

}  // namespace cs
