#include "baselines/cristian.hpp"

#include "baselines/spanning_tree.hpp"
#include "common/error.hpp"
#include "delaymodel/link_stats.hpp"

namespace cs {

std::vector<double> cristian_corrections(const SystemModel& model,
                                         std::span<const View> views,
                                         ProcessorId root) {
  const LinkStats stats = LinkStats::estimated_from_views(model, views);
  const DeltaEstimator delta = [&](ProcessorId p, ProcessorId q) {
    const DirectedStats& pq = stats.direction(p, q);
    const DirectedStats& qp = stats.direction(q, p);
    if (pq.count == 0 || qp.count == 0)
      throw InvalidExecution(
          "cristian baseline needs traffic in both directions of every "
          "tree link");
    return (pq.dmin.finite() - qp.dmin.finite()) / 2.0;
  };
  return tree_corrections(model.topology(), root, delta);
}

}  // namespace cs
