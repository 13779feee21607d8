// Delay-assumption constraints on a single bidirectional link.
//
// A LinkConstraint realizes one set A_{p,q} of locally admissible history
// pairs (§5.1) in the form the algorithms need:
//
//   * admits(): the admissibility predicate, phrased over the multiset of
//     message delays on the link (all A_{p,q} in the paper depend on the
//     histories only through the delays, and are closed under constant
//     shifts by construction);
//   * mls(): the estimated maximal local shift m̃ls(p,q) from directed delay
//     statistics (§6's closed forms).
//
// Concrete models: BoundsConstraint ([lb, ub] with ub possibly infinite —
// covering the upper+lower, lower-only and no-bounds models, Cor 6.3/6.4),
// BiasConstraint (round-trip bias bound, Cor 6.6), and CompositeConstraint
// (simultaneous assumptions, Thm 5.6).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/extreal.hpp"
#include "common/interval.hpp"
#include "delaymodel/link_stats.hpp"
#include "model/ids.hpp"

namespace cs {

/// Observed actual delays on a link, oriented by the link's canonical
/// endpoints (a < b).
struct LinkDelays {
  std::vector<double> a_to_b;
  std::vector<double> b_to_a;
};

/// Timed per-direction observations on a link, canonical orientation.
struct TimedLinkDelays {
  std::vector<TimedObs> a_to_b;
  std::vector<TimedObs> b_to_a;

  LinkDelays untimed() const;
};

class LinkConstraint {
 public:
  LinkConstraint(ProcessorId a, ProcessorId b);
  virtual ~LinkConstraint() = default;

  LinkConstraint(const LinkConstraint&) = delete;
  LinkConstraint& operator=(const LinkConstraint&) = delete;

  ProcessorId a() const { return a_; }
  ProcessorId b() const { return b_; }

  /// Is a pair of histories inducing these delays locally admissible?
  virtual bool admits(const LinkDelays& delays) const = 0;

  /// m̃ls(p, q) where {p, q} = {a, b}: the estimated maximal local shift of
  /// q w.r.t. p, given estimated per-direction stats.  `pq` are the stats
  /// for direction p->q and `qp` for q->p.  (Feeding *actual* stats yields
  /// the actual mls — the same formula, Lemma 6.2 / 6.5.)
  virtual ExtReal mls(ProcessorId p, const DirectedStats& pq,
                      const DirectedStats& qp) const = 0;

  /// Time-aware variants.  Most models depend on delays only through the
  /// per-direction extremes, so the defaults reduce to the untimed forms;
  /// models whose admissibility references *when* messages were sent
  /// (WindowedBiasConstraint) override these.  The pipeline and the
  /// admissibility checker always call the timed entry points.
  virtual bool admits_timed(const TimedLinkDelays& delays) const;
  virtual ExtReal mls_timed(ProcessorId p, std::span<const TimedObs> pq,
                            std::span<const TimedObs> qp) const;

  /// True when mls_timed() depends on its spans only through the
  /// per-direction extremes, i.e. equals mls() over their DirectedStats
  /// folds (Lemmas 6.2 and 6.5).  The bounds, lower-bound, no-bounds and
  /// bias models are; a model that overrides mls_timed() to read send
  /// times (WindowedBiasConstraint) must return false, so the pipeline
  /// keeps its full observation series.
  virtual bool extreme_sufficient() const { return true; }

  /// Human-readable description for experiment tables.
  virtual std::string describe() const = 0;

 protected:
  /// Validates that p is one of the endpoints; returns the other one.
  ProcessorId other(ProcessorId p) const;

 private:
  ProcessorId a_;
  ProcessorId b_;
};

/// Delay bounds per direction: delays of a->b messages must lie in
/// `bounds_ab`, b->a delays in `bounds_ba`.  Lower bounds must be finite and
/// non-negative; upper bounds may be +inf.
class BoundsConstraint final : public LinkConstraint {
 public:
  BoundsConstraint(ProcessorId a, ProcessorId b, Interval bounds_ab,
                   Interval bounds_ba);

  const Interval& bounds(ProcessorId from) const;

  bool admits(const LinkDelays& delays) const override;
  ExtReal mls(ProcessorId p, const DirectedStats& pq,
              const DirectedStats& qp) const override;
  std::string describe() const override;

 private:
  Interval ab_;
  Interval ba_;
};

/// Round-trip bias bound: |d(m1) - d(m2)| <= bias for every pair of
/// messages in opposite directions, and all delays non-negative (§6.2).
class BiasConstraint final : public LinkConstraint {
 public:
  BiasConstraint(ProcessorId a, ProcessorId b, double bias);

  double bias() const { return bias_; }

  bool admits(const LinkDelays& delays) const override;
  ExtReal mls(ProcessorId p, const DirectedStats& pq,
              const DirectedStats& qp) const override;
  std::string describe() const override;

 private:
  double bias_;
};

/// Conjunction of several constraints on the same link.  Theorem 5.6: the
/// maximal local shift under the intersection is the min of the components'
/// maximal local shifts.
class CompositeConstraint final : public LinkConstraint {
 public:
  CompositeConstraint(ProcessorId a, ProcessorId b,
                      std::vector<std::unique_ptr<LinkConstraint>> parts);

  std::size_t part_count() const { return parts_.size(); }
  const LinkConstraint& part(std::size_t i) const { return *parts_[i]; }

  bool admits(const LinkDelays& delays) const override;
  ExtReal mls(ProcessorId p, const DirectedStats& pq,
              const DirectedStats& qp) const override;
  bool admits_timed(const TimedLinkDelays& delays) const override;
  ExtReal mls_timed(ProcessorId p, std::span<const TimedObs> pq,
                    std::span<const TimedObs> qp) const override;
  /// True only if every part is.
  bool extreme_sufficient() const override;
  std::string describe() const override;

 private:
  std::vector<std::unique_ptr<LinkConstraint>> parts_;
};

// ---- Factories for the paper's four named models (§1) -------------------

/// Model 1: upper and lower bounds known (symmetric in both directions).
/// Throws InvalidAssumption unless lb <= ub.
std::unique_ptr<LinkConstraint> make_bounds(ProcessorId a, ProcessorId b,
                                            double lb, double ub);

/// Asymmetric bounds per direction.
std::unique_ptr<LinkConstraint> make_bounds(ProcessorId a, ProcessorId b,
                                            Interval ab, Interval ba);

/// Model 2: only lower bounds known.
std::unique_ptr<LinkConstraint> make_lower_bound_only(ProcessorId a,
                                                      ProcessorId b,
                                                      double lb);

/// Model 3: no bounds at all (only non-negativity).
std::unique_ptr<LinkConstraint> make_no_bounds(ProcessorId a, ProcessorId b);

/// Model 4: bound on the round-trip delay bias.
std::unique_ptr<LinkConstraint> make_bias(ProcessorId a, ProcessorId b,
                                          double bias);

/// Conjunction of assumptions on one link (Thm 5.6).
std::unique_ptr<LinkConstraint> make_composite(
    ProcessorId a, ProcessorId b,
    std::vector<std::unique_ptr<LinkConstraint>> parts);

}  // namespace cs
