// Robust estimation (core/robust.hpp): the f = 0 honesty tax is zero.
//
// The property the subsystem is allowed to ship on: with no liars, every
// robust variant — MAD-trimmed folds, quorum validation, and the two
// combined — produces the *bit-identical* outcome of the naive pipeline,
// across 50 random instances.  Robustness must cost nothing when there is
// nothing to be robust against.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "core/local_estimates.hpp"
#include "core/robust.hpp"
#include "core/synchronizer.hpp"
#include "delaymodel/link_stats.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

Topology instance_topology(std::size_t i, Rng& rng) {
  switch (i % 3) {
    case 0: return make_complete(5);
    case 1: return make_ring(6);
    default: return make_connected_gnp(7, 0.6, rng);
  }
}

RobustOptions robust_variant(std::size_t v, double tolerance) {
  RobustOptions r;
  if (v == 1 || v == 3) {
    r.trim = true;
    r.trim_gate = 6.0;
  }
  if (v == 2 || v == 3) {
    r.quorum = 3;
    r.quorum_tolerance = tolerance;
  }
  return r;
}

TEST(RobustHonestyTax, FiftyRandomInstancesAreBitIdentical) {
  for (std::size_t i = 0; i < 50; ++i) {
    const std::uint64_t seed = 1000 + i;
    Rng topo_rng(seed);
    const SystemModel model =
        test::bounded_model(instance_topology(i, topo_rng), 0.01, 0.11);
    // Enough rounds that every direction's empirical MAD reflects the
    // delay band: for uniform delays the extreme deviation sits near
    // 2 MADs, far inside the 6-MAD gate.  (With a handful of samples the
    // MAD itself is noise and the gate can fire on honest traffic — the
    // trim-backfire regime docs/BYZ.md tells operators to stay out of.)
    const SimResult sim = test::run_ping_pong(model, seed, 0.2, 12);
    const std::vector<View> views = sim.execution.views();

    const SyncOutcome base = synchronize(model, views);

    // Honest routes always corroborate within the declared band's width,
    // so a full-width per-hop tolerance keeps quorum from firing.  Each
    // variant runs the byz harness's order: trim, fold, quorum, solve.
    for (std::size_t v = 1; v <= 3; ++v) {
      const RobustOptions robust = robust_variant(v, 0.10);
      LinkTraffic traffic =
          LinkTraffic::estimated_from_views(views, MatchPolicy::kStrict);
      if (robust.trim)
        traffic = trimmed_traffic(traffic, model, robust.trim_gate);
      Digraph mls = mls_graph_from_traffic(model, traffic);
      if (robust.quorum > 0) mls = quorum_validated_mls(mls, robust);
      const SyncOutcome out = synchronize_mls(std::move(mls));
      ASSERT_EQ(out.corrections.size(), base.corrections.size())
          << "instance " << i << " variant " << v;
      for (std::size_t p = 0; p < base.corrections.size(); ++p)
        EXPECT_EQ(out.corrections[p], base.corrections[p])
            << "instance " << i << " variant " << v << " processor " << p;
      EXPECT_EQ(out.optimal_precision.finite(),
                base.optimal_precision.finite())
          << "instance " << i << " variant " << v;
    }
  }
}

TEST(RobustTrim, HonestTrafficIsAnElementForElementCopy) {
  const SystemModel model = test::bounded_model(make_complete(4), 0.0, 1.0);
  const SimResult sim = test::run_ping_pong(model, 77, 0.2);
  const LinkTraffic traffic = LinkTraffic::estimated_from_views(
      sim.execution.views(), MatchPolicy::kDropOrphans);
  Metrics metrics;
  const LinkTraffic trimmed = trimmed_traffic(traffic, model, 6.0, &metrics);
  const std::size_t n = model.processor_count();
  for (ProcessorId p = 0; p < n; ++p)
    for (ProcessorId q = 0; q < n; ++q) {
      const auto before = traffic.direction(p, q);
      const auto after = trimmed.direction(p, q);
      ASSERT_EQ(after.size(), before.size()) << p << "->" << q;
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i].send, before[i].send);
        EXPECT_EQ(after[i].delay, before[i].delay);
      }
    }
  EXPECT_EQ(metrics.counter("robust.trimmed_observations"), 0u);
}

TEST(RobustQuorum, HonestMlsGraphSurvivesValidation) {
  const SystemModel model = test::bounded_model(make_complete(5), 0.0, 1.0);
  const SimResult sim = test::run_ping_pong(model, 78, 0.2);
  const SyncOutcome base = synchronize(model, sim.execution.views(), {});
  RobustOptions options;
  options.quorum = 3;
  options.quorum_tolerance = 1.0;
  Metrics metrics;
  const Digraph validated =
      quorum_validated_mls(base.mls_graph, options, &metrics);
  EXPECT_EQ(validated.edge_count(), base.mls_graph.edge_count());
  EXPECT_EQ(metrics.counter("robust.quorum_dropped_edges"), 0u);
}

}  // namespace
}  // namespace cs
