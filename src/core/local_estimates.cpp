#include "core/local_estimates.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/pool.hpp"
#include "delaymodel/link_stats.hpp"

namespace cs {

LocalEstimates ingest_views(const SystemModel& model,
                            std::span<const View> views, MatchPolicy policy,
                            std::size_t threads) {
  LocalEstimates out;
  if (model.extreme_sufficient()) {
    const LinkStats stats =
        LinkStats::estimated_from_views(model, views, policy, &out.pairing);
    out.coverage = link_coverage(model, stats);
    out.mls = mls_graph_from_stats(model, stats);
  } else {
    const LinkTraffic traffic =
        LinkTraffic::estimated_from_views(views, policy, &out.pairing);
    out.coverage = link_coverage(model, traffic);
    out.mls = mls_graph_from_traffic(model, traffic, threads);
  }
  return out;
}

Digraph mls_graph_from_stats(const SystemModel& model,
                             const LinkStats& stats) {
  const auto& links = model.topology().links;
  if (!stats.laid_out_for(model))
    throw InvalidAssumption(
        "mls_graph_from_stats: stats are laid out for another topology");
  Digraph g(model.processor_count());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [a, b] = links[i];
    const LinkConstraint& c = model.link_constraint(i);
    const DirectedStats& ab = stats.at(2 * i);
    const DirectedStats& ba = stats.at(2 * i + 1);
    const ExtReal mls_ab = c.mls(a, ab, ba);  // shift of b w.r.t. a
    const ExtReal mls_ba = c.mls(b, ba, ab);  // shift of a w.r.t. b
    if (mls_ab.is_finite()) g.add_edge(a, b, mls_ab.finite());
    if (mls_ba.is_finite()) g.add_edge(b, a, mls_ba.finite());
  }
  return g;
}

Digraph mls_graph_from_traffic(const SystemModel& model,
                               const LinkTraffic& traffic,
                               std::size_t threads) {
  const auto& links = model.topology().links;
  Digraph g(model.processor_count());

  // Each link's fold is an independent closed-form evaluation over its own
  // observation spans (constraints are stateless const objects), so the
  // folds shard cleanly; edge insertion stays serial in link order, which
  // keeps the edge-id assignment — and thus every downstream iteration
  // order — byte-identical to the serial build.
  struct LinkMls {
    ExtReal ab{ExtReal::infinity()};
    ExtReal ba{ExtReal::infinity()};
  };
  std::vector<LinkMls> folds(links.size());
  const auto fold_one = [&](std::size_t i) {
    const auto [a, b] = links[i];
    const LinkConstraint& c = model.link_constraint(i);
    const auto ab = traffic.direction(a, b);
    const auto ba = traffic.direction(b, a);
    folds[i].ab = c.mls_timed(a, ab, ba);  // shift of b w.r.t. a
    folds[i].ba = c.mls_timed(b, ba, ab);  // shift of a w.r.t. b
  };
  if (threads == 1 || links.size() < 2) {
    for (std::size_t i = 0; i < links.size(); ++i) fold_one(i);
  } else {
    PoolOptions pool;
    pool.threads = threads;
    run_indexed(links.size(), fold_one, pool);
  }

  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [a, b] = links[i];
    if (folds[i].ab.is_finite()) g.add_edge(a, b, folds[i].ab.finite());
    if (folds[i].ba.is_finite()) g.add_edge(b, a, folds[i].ba.finite());
  }
  return g;
}

Digraph local_shifts_actual(const SystemModel& model, const Execution& exec) {
  return mls_graph_from_traffic(model,
                                LinkTraffic::actual_from_execution(exec));
}

}  // namespace cs
