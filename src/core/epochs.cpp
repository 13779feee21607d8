#include "core/epochs.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/local_estimates.hpp"

namespace cs {
namespace {

void check_inputs(const SystemModel& model, std::span<const View> views,
                  std::span<const ClockTime> boundaries) {
  if (views.size() != model.processor_count())
    throw InvalidExecution("need exactly one view per processor");
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].pid != i)
      throw InvalidExecution("views must be ordered by processor id");
  for (std::size_t i = 1; i < boundaries.size(); ++i)
    if (!(boundaries[i - 1] < boundaries[i]))
      throw Error("epoch boundaries must be strictly increasing");
}

}  // namespace

std::vector<EpochOutcome> epochal_synchronize_incremental(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options) {
  check_inputs(model, views, boundaries);
  Metrics* metrics = options.sync.metrics;
  IncrementalSynchronizer dense(model, options.sync);
  MlsCarry carry(options.staleness, metrics);
  const bool windowed = options.window > Duration{0.0};

  // Prefix cuts of clock-ordered views on an extremes model take one
  // ingest pass: each boundary pairs only the events it adds and folds
  // them into one cumulative LinkStats (min, max and count over the same
  // delays are exact, so the m̃ls graph is the per-cut one).  Otherwise
  // every cut is copied and ingested on its own.
  const bool one_pass =
      !windowed && model.extreme_sufficient() &&
      std::all_of(views.begin(), views.end(),
                  [](const View& v) { return v.in_clock_order(); });
  std::optional<PrefixPairer> pairer;
  std::optional<LinkStats> stats;
  std::vector<View> cuts;
  if (one_pass) {
    pairer.emplace(views);
    stats.emplace(model);
  } else {
    cuts.resize(views.size());
  }

  std::vector<EpochOutcome> out;
  out.reserve(boundaries.size());
  for (const ClockTime boundary : boundaries) {
    auto timer = Metrics::scoped(metrics, "stage.epoch_seconds");
    EpochOutcome epoch;
    epoch.boundary = boundary;

    Digraph mls;
    if (one_pass) {
      auto est_timer =
          Metrics::scoped(metrics, "stage.local_estimates_seconds");
      for (const PairedMessage& m : pairer->advance(boundary))
        stats->add(m.from, m.to, m.estimated_delay().sec);
      epoch.pairing = pairer->stats();
      epoch.coverage = link_coverage(model, *stats);
      mls = mls_graph_from_stats(model, *stats);
    } else {
      for (std::size_t p = 0; p < views.size(); ++p)
        cuts[p] = windowed
                      ? views[p].window(boundary - options.window, boundary)
                      : views[p].prefix(boundary);
      auto est_timer =
          Metrics::scoped(metrics, "stage.local_estimates_seconds");
      // Epoch cuts are taken at clock boundaries, so orphan receives are
      // normal; under fault injection so are duplicate re-deliveries.
      LocalEstimates est =
          ingest_views(model, cuts, MatchPolicy::kDropOrphans);
      mls = std::move(est.mls);
      epoch.coverage = std::move(est.coverage);
      epoch.pairing = est.pairing;
    }
    metrics_increment(metrics, "degraded.orphan_receives",
                      epoch.pairing.orphan_receives);
    metrics_increment(metrics, "degraded.duplicate_receives",
                      epoch.pairing.duplicate_receives);
    metrics_increment(
        metrics, "degraded.unobserved_directions",
        epoch.coverage.total_directions - epoch.coverage.observed_directions);

    Digraph effective = carry.apply(mls);
    epoch.carried_edges = carry.last_carried();

    epoch.sync = dense.step_mls(std::move(effective));
    out.push_back(std::move(epoch));
    metrics_increment(metrics, "pipeline.epochs");
  }
  return out;
}

}  // namespace cs
