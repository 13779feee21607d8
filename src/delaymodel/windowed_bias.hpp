// Windowed round-trip bias bounds — the generalization §6.2 notes:
// "it is possible to generalize our results to the more realistic model in
// which this assumption holds only for messages that were sent around the
// same time."
//
// WindowedBiasConstraint(b, W): delays are non-negative, and for every
// pair of opposite-direction messages whose *send times* differ by at most
// W, the delays differ by at most b.  Pairs sent further apart are
// unconstrained — load can drift, only short-term symmetry is promised.
// W = +inf degenerates to BiasConstraint.
//
// Estimation (derivation in windowed_bias.cpp): the admissible relative
// shifts are characterized entirely by view-computable quantities — pair
// send-clock differences Δc and estimated-delay differences D — so m̃ls is
// computed by a breakpoint sweep.  One caveat the paper's remark glosses
// over: the admissible-shift set of this model need not be an interval
// (Assumption 1 can fail — a pair can leave the window before its bias
// constraint would bind).  We report the supremum of the whole admissible
// set, which is always a *sound* over-approximation of the maximal local
// shift (over-estimating m̃ls only loosens the claimed precision, Thm 4.6's
// safe direction) and is exact whenever the set is connected — the common
// case.
#pragma once

#include "delaymodel/constraint.hpp"

namespace cs {

class WindowedBiasConstraint final : public LinkConstraint {
 public:
  WindowedBiasConstraint(ProcessorId a, ProcessorId b, double bias,
                         double window);

  double bias() const { return bias_; }
  double window() const { return window_; }

  /// Untimed fallback: conservative in each direction — admits() checks
  /// the bias against *all* pairs (as if every pair were in-window; never
  /// accepts an inadmissible execution), mls() uses the information-free
  /// upper envelope d̃min (never under-reports the maximal shift).  The
  /// timed entry points below are the authoritative ones and are what the
  /// pipeline calls.
  bool admits(const LinkDelays& delays) const override;
  ExtReal mls(ProcessorId p, const DirectedStats& pq,
              const DirectedStats& qp) const override;

  bool admits_timed(const TimedLinkDelays& delays) const override;
  ExtReal mls_timed(ProcessorId p, std::span<const TimedObs> pq,
                    std::span<const TimedObs> qp) const override;
  /// False: m̃ls reads send times, not just the extremes.
  bool extreme_sufficient() const override { return false; }

  std::string describe() const override;

 private:
  double bias_;
  double window_;
};

/// Model 4', the windowed refinement of make_bias.
std::unique_ptr<LinkConstraint> make_windowed_bias(ProcessorId a,
                                                   ProcessorId b, double bias,
                                                   double window);

}  // namespace cs
