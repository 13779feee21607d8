#include "oracles/numeric_mls.hpp"

#include "common/error.hpp"

namespace cs {

LinkDelays shift_link_delays(const LinkDelays& observed, ProcessorId p,
                             ProcessorId a, double s) {
  LinkDelays out = observed;
  // If p is the canonical endpoint a, then q = b: a->b is the p->q
  // direction (delays - s), b->a is q->p (delays + s); mirrored otherwise.
  const bool p_is_a = (p == a);
  for (double& d : (p_is_a ? out.a_to_b : out.b_to_a)) d -= s;
  for (double& d : (p_is_a ? out.b_to_a : out.a_to_b)) d += s;
  return out;
}

TimedLinkDelays shift_timed_link_delays(const TimedLinkDelays& observed,
                                        ProcessorId p, ProcessorId a,
                                        double s) {
  TimedLinkDelays out = observed;
  const bool p_is_a = (p == a);
  // q's history moves s earlier: its outgoing delays grow by s and its
  // send times shrink by s; p->q delays shrink by s, p's sends untouched.
  for (TimedObs& o : (p_is_a ? out.a_to_b : out.b_to_a)) o.delay -= s;
  for (TimedObs& o : (p_is_a ? out.b_to_a : out.a_to_b)) {
    o.delay += s;
    o.send -= s;
  }
  return out;
}

ExtReal numeric_mls_timed(const LinkConstraint& c,
                          const TimedLinkDelays& observed, ProcessorId p,
                          double cap, double resolution, double tol) {
  if (!c.admits_timed(observed))
    throw InvalidAssumption("numeric_mls_timed requires an admissible start");

  const auto admissible_at = [&](double s) {
    return c.admits_timed(shift_timed_link_delays(observed, p, c.a(), s));
  };

  // Forward scan: the admissible set may be a union of intervals, so find
  // the largest admissible grid point, then sharpen the boundary above it
  // by bisection against the first inadmissible grid point.
  double best = 0.0;
  double above = -1.0;  // first scanned inadmissible point above `best`
  for (double s = 0.0; s <= cap; s += resolution) {
    if (admissible_at(s)) {
      best = s;
      above = -1.0;
    } else if (above < 0.0) {
      above = s;
    }
  }
  if (above < 0.0) return ExtReal::infinity();  // admissible beyond cap

  double lo = best, hi = above;
  while (hi - lo > tol) {
    const double mid = lo + (hi - lo) / 2.0;
    (admissible_at(mid) ? lo : hi) = mid;
  }
  return ExtReal{lo + (hi - lo) / 2.0};
}

ExtReal numeric_mls(const LinkConstraint& c, const LinkDelays& observed,
                    ProcessorId p, double cap, double tol) {
  if (!c.admits(observed))
    throw InvalidAssumption("numeric_mls requires an admissible execution");

  const auto admissible_at = [&](double s) {
    return c.admits(shift_link_delays(observed, p, c.a(), s));
  };

  // Exponential probe upward; by Assumption 1 the admissible set is an
  // interval containing 0, so the first inadmissible probe brackets mls.
  double lo = 0.0;
  double hi = 1.0;
  while (admissible_at(hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > cap) return ExtReal::infinity();
  }
  while (hi - lo > tol) {
    const double mid = lo + (hi - lo) / 2.0;
    (admissible_at(mid) ? lo : hi) = mid;
  }
  return ExtReal{lo + (hi - lo) / 2.0};
}

}  // namespace cs
