#include "delaymodel/constraint.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cs {
namespace {

// Delays measured from an execution carry ~1 ulp of float noise (the
// simulator computes arrival = send + d, and d is later re-derived as
// arrival - send).  Admissibility is a physical predicate, so comparisons
// tolerate a picosecond of slack rather than demanding exact arithmetic.
constexpr double kAdmitTol = 1e-12;

}  // namespace

LinkConstraint::LinkConstraint(ProcessorId a, ProcessorId b) : a_(a), b_(b) {
  if (a >= b) throw InvalidAssumption("link endpoints must satisfy a < b");
}

ProcessorId LinkConstraint::other(ProcessorId p) const {
  if (p == a_) return b_;
  if (p == b_) return a_;
  throw InvalidAssumption("processor is not an endpoint of this link");
}

LinkDelays TimedLinkDelays::untimed() const {
  LinkDelays out;
  out.a_to_b.reserve(a_to_b.size());
  out.b_to_a.reserve(b_to_a.size());
  for (const TimedObs& o : a_to_b) out.a_to_b.push_back(o.delay);
  for (const TimedObs& o : b_to_a) out.b_to_a.push_back(o.delay);
  return out;
}

bool LinkConstraint::admits_timed(const TimedLinkDelays& delays) const {
  return admits(delays.untimed());
}

ExtReal LinkConstraint::mls_timed(ProcessorId p, std::span<const TimedObs> pq,
                                  std::span<const TimedObs> qp) const {
  DirectedStats spq, sqp;
  for (const TimedObs& o : pq) spq.add(o.delay);
  for (const TimedObs& o : qp) sqp.add(o.delay);
  return mls(p, spq, sqp);
}

// ---- BoundsConstraint ----------------------------------------------------

BoundsConstraint::BoundsConstraint(ProcessorId a, ProcessorId b,
                                   Interval bounds_ab, Interval bounds_ba)
    : LinkConstraint(a, b), ab_(bounds_ab), ba_(bounds_ba) {
  for (const Interval& iv : {ab_, ba_}) {
    if (!iv.lo().is_finite() || iv.lo() < ExtReal{0.0})
      throw InvalidAssumption(
          "lower delay bounds must be finite and non-negative");
  }
}

const Interval& BoundsConstraint::bounds(ProcessorId from) const {
  return from == a() ? ab_ : ba_;
}

bool BoundsConstraint::admits(const LinkDelays& delays) const {
  const auto ok = [](const Interval& iv, const std::vector<double>& ds) {
    return std::all_of(ds.begin(), ds.end(), [&](double d) {
      return ExtReal{d + kAdmitTol} >= iv.lo() &&
             ExtReal{d - kAdmitTol} <= iv.hi();
    });
  };
  return ok(ab_, delays.a_to_b) && ok(ba_, delays.b_to_a);
}

ExtReal BoundsConstraint::mls(ProcessorId p, const DirectedStats& pq,
                              const DirectedStats& qp) const {
  const ProcessorId q = other(p);
  // Lemma 6.2 / Cor 6.3:
  //   mls(p,q) = min( ub(q,p) - dmax(q,p),  dmin(p,q) - lb(p,q) ).
  // With estimated stats in, the estimated mls comes out.
  const ExtReal slack_reverse = bounds(q).hi() - qp.dmax;
  const ExtReal slack_forward = pq.dmin - bounds(p).lo();
  return min(slack_reverse, slack_forward);
}

std::string BoundsConstraint::describe() const {
  std::ostringstream os;
  os << "bounds[" << ab_.lo().str() << "," << ab_.hi().str() << "]/["
     << ba_.lo().str() << "," << ba_.hi().str() << "]";
  return os.str();
}

// ---- BiasConstraint --------------------------------------------------------

BiasConstraint::BiasConstraint(ProcessorId a, ProcessorId b, double bias)
    : LinkConstraint(a, b), bias_(bias) {
  if (bias < 0.0) throw InvalidAssumption("bias bound must be non-negative");
}

bool BiasConstraint::admits(const LinkDelays& delays) const {
  const auto nonneg = [](const std::vector<double>& ds) {
    return std::all_of(ds.begin(), ds.end(),
                       [](double d) { return d >= -kAdmitTol; });
  };
  if (!nonneg(delays.a_to_b) || !nonneg(delays.b_to_a)) return false;
  if (delays.a_to_b.empty() || delays.b_to_a.empty()) return true;
  const auto [min_ab, max_ab] =
      std::minmax_element(delays.a_to_b.begin(), delays.a_to_b.end());
  const auto [min_ba, max_ba] =
      std::minmax_element(delays.b_to_a.begin(), delays.b_to_a.end());
  return *max_ab - *min_ba <= bias_ + kAdmitTol &&
         *max_ba - *min_ab <= bias_ + kAdmitTol;
}

ExtReal BiasConstraint::mls(ProcessorId /*p*/, const DirectedStats& pq,
                            const DirectedStats& qp) const {
  // Lemma 6.5 / Cor 6.6:
  //   mls(p,q) = min( dmin(p,q), (bias + dmin(p,q) - dmax(q,p)) / 2 ).
  // The first term is the non-negativity part (A'), the second the pure
  // bias part (A''), combined per Thm 5.6.
  const ExtReal first = pq.dmin;
  const ExtReal second = (ExtReal{bias_} + pq.dmin - qp.dmax) / 2.0;
  return min(first, second);
}

std::string BiasConstraint::describe() const {
  std::ostringstream os;
  os << "bias[" << bias_ << "]";
  return os.str();
}

// ---- CompositeConstraint ---------------------------------------------------

CompositeConstraint::CompositeConstraint(
    ProcessorId a, ProcessorId b,
    std::vector<std::unique_ptr<LinkConstraint>> parts)
    : LinkConstraint(a, b), parts_(std::move(parts)) {
  if (parts_.empty())
    throw InvalidAssumption("composite constraint needs at least one part");
  for (const auto& p : parts_)
    if (p->a() != a || p->b() != b)
      throw InvalidAssumption("composite parts must share link endpoints");
}

bool CompositeConstraint::admits(const LinkDelays& delays) const {
  return std::all_of(parts_.begin(), parts_.end(),
                     [&](const auto& p) { return p->admits(delays); });
}

ExtReal CompositeConstraint::mls(ProcessorId p, const DirectedStats& pq,
                                 const DirectedStats& qp) const {
  // Theorem 5.6: mls under an intersection of local sets is the min of the
  // per-set mls values.
  ExtReal m = ExtReal::infinity();
  for (const auto& part : parts_) m = min(m, part->mls(p, pq, qp));
  return m;
}

bool CompositeConstraint::admits_timed(const TimedLinkDelays& delays) const {
  return std::all_of(parts_.begin(), parts_.end(), [&](const auto& p) {
    return p->admits_timed(delays);
  });
}

ExtReal CompositeConstraint::mls_timed(ProcessorId p,
                                       std::span<const TimedObs> pq,
                                       std::span<const TimedObs> qp) const {
  // Thm 5.6 applies verbatim to the timed variants.
  ExtReal m = ExtReal::infinity();
  for (const auto& part : parts_) m = min(m, part->mls_timed(p, pq, qp));
  return m;
}

bool CompositeConstraint::extreme_sufficient() const {
  return std::all_of(parts_.begin(), parts_.end(), [](const auto& p) {
    return p->extreme_sufficient();
  });
}

std::string CompositeConstraint::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) os << " & ";
    os << parts_[i]->describe();
  }
  return os.str();
}

// ---- Factories -------------------------------------------------------------

std::unique_ptr<LinkConstraint> make_bounds(ProcessorId a, ProcessorId b,
                                            double lb, double ub) {
  // Checked here because Interval only asserts lo <= hi.
  if (!(lb <= ub))
    throw InvalidAssumption("lower delay bound exceeds the upper bound");
  const Interval iv{ExtReal{lb}, ExtReal{ub}};
  return std::make_unique<BoundsConstraint>(a, b, iv, iv);
}

std::unique_ptr<LinkConstraint> make_bounds(ProcessorId a, ProcessorId b,
                                            Interval ab, Interval ba) {
  return std::make_unique<BoundsConstraint>(a, b, ab, ba);
}

std::unique_ptr<LinkConstraint> make_lower_bound_only(ProcessorId a,
                                                      ProcessorId b,
                                                      double lb) {
  const Interval iv{ExtReal{lb}, ExtReal::infinity()};
  return std::make_unique<BoundsConstraint>(a, b, iv, iv);
}

std::unique_ptr<LinkConstraint> make_no_bounds(ProcessorId a, ProcessorId b) {
  return make_lower_bound_only(a, b, 0.0);
}

std::unique_ptr<LinkConstraint> make_bias(ProcessorId a, ProcessorId b,
                                          double bias) {
  return std::make_unique<BiasConstraint>(a, b, bias);
}

std::unique_ptr<LinkConstraint> make_composite(
    ProcessorId a, ProcessorId b,
    std::vector<std::unique_ptr<LinkConstraint>> parts) {
  return std::make_unique<CompositeConstraint>(a, b, std::move(parts));
}

}  // namespace cs
