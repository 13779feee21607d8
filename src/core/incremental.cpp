#include "core/incremental.hpp"

#include "common/error.hpp"

namespace cs {

IncrementalSynchronizer::IncrementalSynchronizer(const SystemModel& model,
                                                 SyncOptions options)
    : model_(&model),
      options_(options),
      apsp_(IncrementalApspOptions{}, options.metrics) {}

SyncOutcome IncrementalSynchronizer::step_mls(Digraph mls_graph) {
  if (mls_graph.node_count() != model_->processor_count())
    throw InvalidExecution("m̃ls graph node count must equal processor count");
  Metrics* metrics = options_.metrics;

  SyncOutcome out;
  out.mls_graph = std::move(mls_graph);

  {
    auto timer = Metrics::scoped(metrics, "stage.global_estimates_seconds");
    // Diff the same slack-relaxed graph the from-scratch path closes over,
    // so both paths agree to float tolerance.
    if (!apsp_.update(slack_relaxed_mls(out.mls_graph))) {
      // Invalid state is not carried: the next step_mls() starts clean.
      apsp_ = IncrementalApsp(IncrementalApspOptions{}, options_.metrics);
      policy_.clear();
      throw InvalidAssumption(
          "negative m̃ls cycle: the observed execution contradicts the "
          "declared delay assumptions");
    }
    out.ms_estimates = apsp_.distances();
  }

  ShiftsOptions shift_options;
  shift_options.root = options_.root;
  shift_options.metrics = metrics;
  shift_options.arena = &shifts_arena_;
  shift_options.threads = options_.threads;
  if (policy_.size() == out.mls_graph.node_count())
    shift_options.warm_policy = &policy_;
  ShiftsResult shifts = compute_shifts(out.ms_estimates, shift_options);
  policy_ = std::move(shifts.policy);

  out.corrections = std::move(shifts.corrections);
  out.optimal_precision = shifts.a_max;
  out.components = std::move(shifts.components);
  out.component_precision = std::move(shifts.component_a_max);
  out.critical_cycle = std::move(shifts.critical_cycle);
  metrics_increment(metrics, "pipeline.incremental_steps");
  return out;
}

}  // namespace cs
