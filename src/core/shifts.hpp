// Step 3: Function SHIFTS (§4.4, Theorem 4.6).
//
// Inputs: the matrix of estimated maximal global shifts m̃s(p, q).
// Outputs: the optimal corrections and their precision Ã^max = A^max.
//
//   1. Ã^max = maximum mean cycle of the shift graph, by Howard's policy
//      iteration; its converged value vector v is a feasible potential,
//      v_q − v_p <= Ã^max − m̃s(p,q) for every pair.
//   2. correction(p) = dist_w(root, p) under w(p,q) = Ã^max − m̃s(p,q), by
//      one dense Dijkstra on the reweighting w(p,q) + v_p − v_q >= 0.
//   3. The critical cycle θ: of the converged policy's cycles, the one of
//      largest m̃s mean.  Both halves of the Thm 4.4/4.6 certificate are
//      checked: ρ̄(x) <= Ã^max (upper) and Σ_θ m̃s / |θ| >= Ã^max (lower;
//      it holds for every x, as x cancels around a cycle).
//
// On a component of k processors, step 1 costs O(k²) per Howard iteration,
// step 2 O(k²) in all and step 3 O(k); the argument is in docs/THEORY.md.
//
// Unbounded instances: if some pair's m̃s is +inf, A^max = +inf — no finite
// precision can be guaranteed across that pair (§3's motivation).  SHIFTS
// then degrades gracefully: the strongly connected components of the
// finite-m̃s graph ("finiteness components") are synchronized independently,
// each with its own optimal per-component precision; the reported overall
// a_max is +inf.  Within a component the corrections coincide with what
// SHIFTS would produce on that component's sub-instance, so per-component
// optimality is preserved.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/extreal.hpp"
#include "common/metrics.hpp"
#include "graph/cycle_mean.hpp"
#include "graph/distance_matrix.hpp"
#include "graph/scc.hpp"

namespace cs {

struct ShiftsResult {
  /// The instance-optimal precision Ã^max; +inf on unbounded instances.
  ExtReal a_max{0.0};

  /// Correction offset per processor.  The corrected logical clock of p is
  /// its local clock plus corrections[p] (Definition 2.1).
  std::vector<double> corrections;

  /// Finiteness components of the m̃s graph (a single component iff the
  /// instance is bounded).
  SccResult components;

  /// Optimal precision within each component (0 for singletons).
  std::vector<double> component_a_max;

  /// Howard policy: successor per processor, kNoPolicyEdge on singleton
  /// components.  Feed back through ShiftsOptions::warm_policy on the next
  /// epoch.
  std::vector<NodeId> policy;

  /// A critical cycle θ = p_0 -> ... -> p_{m-1} -> p_0 of a bounded
  /// instance: its mean m̃s weight is Ã^max (§4.3), so it names the pairs
  /// that limit the precision.  Empty when unbounded or n = 1.
  std::vector<NodeId> critical_cycle;

  bool bounded() const { return a_max.is_finite(); }
};

/// Relative scale of the certificate tolerance.  Each component must meet
/// Σ_θ m̃s / |θ| >= Ã^max − ε and max m̃s(p,q) − x_p + x_q <= Ã^max + ε with
/// ε = shifts_epsilon(Ã^max), else compute_shifts throws cs::Error
/// (DESIGN.md "Numeric tolerance contract").  The critical cycle has weight
/// exactly 0 under w = Ã^max − m̃s, so float rounding leaves the upper half
/// a few ulps off; anything beyond ε proves the m̃s matrix inconsistent or
/// the cycle mean wrong.
inline constexpr double kShiftsTolerance = 1e-9;

/// The certificate's ε for a component of optimum `a_max`.
inline double shifts_epsilon(double a_max) {
  return kShiftsTolerance * std::max(1.0, std::fabs(a_max));
}

struct ShiftsOptions {
  /// Breaks the additive-constant gauge freedom; any root yields corrections
  /// differing by a per-component constant, which does not affect pairwise
  /// precision.
  NodeId root{0};

  /// Previous epoch's ShiftsResult::policy to warm-start Howard's policy
  /// iteration (nullptr = cold start).  The corrections do not depend on
  /// it beyond float rounding: they are shortest-path distances, whichever
  /// optimal policy Howard stops at.
  const std::vector<NodeId>* warm_policy{nullptr};

  /// Optional instrumentation sink (stage timings, Howard iteration counts,
  /// backstop reports).  nullptr = no instrumentation; results and errors
  /// are the same either way.
  Metrics* metrics{nullptr};

  /// Scratch arena for the dense cycle-mean kernel and correction
  /// distances (policy/value vectors, and the weight block of each
  /// component of an unbounded instance; a bounded instance is read in
  /// place).  The call reset()s it on entry and leaves its allocations
  /// dead on exit.  nullptr = the call uses a private arena (still no
  /// per-component heap churn, but capacity is not retained across
  /// epochs).
  EpochArena* arena{nullptr};

  /// Worker threads for per-component solves on unbounded instances.
  /// Components are independent — each writes a disjoint slice of the
  /// corrections/policy arrays and all float work is confined to its own
  /// members — so any thread count produces byte-identical results
  /// (enforced by tests/core/shifts_threads_test.cpp).  1 = serial; only
  /// engaged when there is more than one component.
  std::size_t threads{1};
};

/// `ms` is the m̃s matrix from global_shift_estimates (diagonal 0, +inf for
/// unconstrained pairs).  Throws cs::Error on malformed input (NaN entries,
/// a finiteness component that is not a shortest-path closure), when
/// Howard exits on its iteration backstop, and when either half of the
/// certificate fails beyond ε.
ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options);

/// Convenience overload: default options with the given root.
ShiftsResult compute_shifts(const DistanceMatrix& ms, NodeId root = 0);

}  // namespace cs
