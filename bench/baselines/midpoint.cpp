#include "baselines/midpoint.hpp"

#include "baselines/spanning_tree.hpp"

namespace cs {

double midpoint_delta(const SystemModel& model, const LinkStats& stats,
                      ProcessorId p, ProcessorId q) {
  const LinkConstraint& c = model.constraint(p, q);
  const DirectedStats& pq = stats.direction(p, q);
  const DirectedStats& qp = stats.direction(q, p);
  const ExtReal hi = c.mls(p, pq, qp);   // m̃ls(p,q): upper end of Δ
  const ExtReal lo = -c.mls(q, qp, pq);  // -m̃ls(q,p): lower end of Δ
  if (hi.is_finite() && lo.is_finite())
    return (hi.finite() + lo.finite()) / 2.0;
  if (hi.is_finite()) return hi.finite();
  if (lo.is_finite()) return lo.finite();
  return 0.0;
}

std::vector<double> tree_midpoint_corrections(const SystemModel& model,
                                              std::span<const View> views,
                                              ProcessorId root) {
  const LinkStats stats = LinkStats::estimated_from_views(model, views);
  const DeltaEstimator delta = [&](ProcessorId p, ProcessorId q) {
    return midpoint_delta(model, stats, p, q);
  };
  return tree_corrections(model.topology(), root, delta);
}

}  // namespace cs
