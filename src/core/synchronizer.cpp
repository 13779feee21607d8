#include "core/synchronizer.hpp"

#include "common/error.hpp"
#include "core/local_estimates.hpp"

namespace cs {

SyncOutcome synchronize(const SystemModel& model, std::span<const View> views,
                        const SyncOptions& options) {
  if (views.size() != model.processor_count())
    throw InvalidExecution("need exactly one view per processor");
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].pid != i)
      throw InvalidExecution("views must be ordered by processor id");

  Digraph mls;
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.local_estimates_seconds");
    mls = ingest_views(model, views, options.match, options.threads).mls;
  }
  return synchronize_mls(std::move(mls), options);
}

SyncOutcome synchronize_mls(Digraph mls_graph, const SyncOptions& options) {
  SyncOutcome out;
  out.mls_graph = std::move(mls_graph);
  out.ms_estimates = global_shift_estimates(out.mls_graph, options.metrics);

  ShiftsOptions shift_options;
  shift_options.root = options.root;
  shift_options.metrics = options.metrics;
  shift_options.threads = options.threads;
  ShiftsResult shifts = compute_shifts(out.ms_estimates, shift_options);
  out.corrections = std::move(shifts.corrections);
  out.optimal_precision = shifts.a_max;
  out.components = std::move(shifts.components);
  out.component_precision = std::move(shifts.component_a_max);
  out.critical_cycle = std::move(shifts.critical_cycle);
  metrics_increment(options.metrics, "pipeline.runs");
  return out;
}

}  // namespace cs
