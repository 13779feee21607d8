// Precision evaluation (§3).
//
// Two quantities matter:
//
//   ρ(α, x)   — the realized discrepancy in one concrete execution:
//               max_{p,q} |(S_p - x_p) - (S_q - x_q)|.  Ground-truth-only.
//
//   ρ̄_α(x)    — the guaranteed precision over the whole equivalence class:
//               sup{ρ(α', x) : α' ≡ α}.  By Claim 4.2 this equals
//               max_{p≠q} [ m̃s(p,q) - x_p + x_q ], so — pleasingly — it is
//               computable from the views alone, like the corrections
//               themselves.
//
// Theorems 4.4/4.6 in these terms: ρ̄_α(x) >= A^max for every x, with
// equality for the SHIFTS corrections.  The property tests check exactly
// that, plus ρ <= ρ̄ on adversarially shifted equivalent executions.
#pragma once

#include <span>

#include "common/extreal.hpp"
#include "common/time.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {

/// Realized discrepancy of corrections x in an execution with the given
/// start times.  O(n): max − min of the per-processor discrepancies, which
/// equals the pairwise maximum bit-for-bit.  0 for n <= 1 (a singleton has
/// no pairs).  Throws InvalidExecution on a size mismatch or a NaN
/// discrepancy — at 100k+ agents a silent debug-only assert is how NaNs
/// leak into reports.
double realized_precision(std::span<const RealTime> starts,
                          std::span<const double> x);

/// Guaranteed precision ρ̄ of corrections x given the m̃s estimate matrix.
/// +inf if any pair with infinite m̃s exists (n >= 2); 0 for n <= 1.
/// Throws InvalidExecution on size mismatch or NaN corrections.
ExtReal guaranteed_precision(const DistanceMatrix& ms_estimates,
                             std::span<const double> x);

/// As above, restricted to the *directed* pairs with finite m̃s — the
/// meaningful quantity on unbounded instances synchronized per component.
/// A one-way-bounded pair still contributes its finite direction's
/// m̃s(p,q) − x_p + x_q term; only genuinely unconstrained directions are
/// skipped (skipping the pair wholesale under-reports worst-case skew).
double guaranteed_precision_finite(const DistanceMatrix& ms_estimates,
                                   std::span<const double> x);

}  // namespace cs
