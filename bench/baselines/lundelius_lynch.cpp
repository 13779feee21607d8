#include "baselines/lundelius_lynch.hpp"

#include "baselines/midpoint.hpp"
#include "common/error.hpp"

namespace cs {

std::vector<double> lundelius_lynch_corrections(const SystemModel& model,
                                                std::span<const View> views) {
  const std::size_t n = model.processor_count();
  if (model.topology().link_count() != n * (n - 1) / 2)
    throw InvalidAssumption(
        "lundelius_lynch baseline requires a complete topology");

  const LinkStats stats = LinkStats::estimated_from_views(model, views);
  std::vector<double> x(n, 0.0);
  for (ProcessorId p = 0; p < n; ++p) {
    double sum = 0.0;
    for (ProcessorId q = 0; q < n; ++q)
      if (q != p) sum += midpoint_delta(model, stats, p, q);
    x[p] = sum / static_cast<double>(n);
  }
  return x;
}

}  // namespace cs
