// The two ingest paths of core/local_estimates.hpp.  On extreme-sufficient
// models (bounds, lower-bound-only, no-bounds, bias and composites of them)
// the extremes path must reproduce the traffic path bit for bit: the same
// Digraph (edge order and weights), the same coverage and the same pairing
// tallies.  A windowed-bias link anywhere, alone or inside a composite,
// sends the whole model down the traffic path.
#include "core/local_estimates.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "graph/topology.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

enum class Kind { kBounds, kLowerOnly, kNoBounds, kBias, kComposite, kMixed };

std::unique_ptr<LinkConstraint> constraint_of(Kind kind, ProcessorId a,
                                              ProcessorId b, Rng& rng) {
  switch (kind) {
    case Kind::kBounds:
      return make_bounds(a, b, rng.uniform(0.0, 0.004),
                         rng.uniform(0.02, 0.06));
    case Kind::kLowerOnly:
      return make_lower_bound_only(a, b, rng.uniform(0.0, 0.004));
    case Kind::kNoBounds:
      return make_no_bounds(a, b);
    case Kind::kBias:
      return make_bias(a, b, rng.uniform(0.001, 0.05));
    case Kind::kComposite: {
      std::vector<std::unique_ptr<LinkConstraint>> parts;
      parts.push_back(constraint_of(Kind::kBounds, a, b, rng));
      parts.push_back(constraint_of(Kind::kBias, a, b, rng));
      return make_composite(a, b, std::move(parts));
    }
    case Kind::kMixed:
      break;
  }
  return constraint_of(static_cast<Kind>(rng.uniform_int(5)), a, b, rng);
}

Topology random_topology(std::uint64_t seed, Rng& rng) {
  switch (seed % 3) {
    case 0:
      return make_ring(3 + rng.uniform_int(8));
    case 1:
      return make_complete(2 + rng.uniform_int(6));
    default:
      return make_connected_gnp(3 + rng.uniform_int(8), 0.3, rng);
  }
}

/// Views of a ping-pong run cut at per-processor clock times (orphan
/// receives, unreceived sends), with some receives delivered again later
/// in the same view (duplicate receives).
std::vector<View> cut_views(const Execution& exec, Rng& rng) {
  std::vector<View> views = exec.views();
  for (View& v : views) {
    v = v.prefix(ClockTime{rng.uniform(0.3, 1.6)});
    std::vector<ViewEvent> again;
    for (const ViewEvent& e : v.events)
      if (e.kind == EventKind::kReceive && rng.uniform_int(6) == 0)
        again.push_back(e);
    for (ViewEvent e : again) {
      e.when = v.events.back().when + Duration{0.001};
      v.events.push_back(e);
    }
  }
  return views;
}

void expect_same_graph(const Digraph& got, const Digraph& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.node_count(), want.node_count()) << ctx;
  ASSERT_EQ(got.edge_count(), want.edge_count()) << ctx;
  for (std::size_t e = 0; e < got.edge_count(); ++e) {
    const Edge& a = got.edges()[e];
    const Edge& b = want.edges()[e];
    ASSERT_TRUE(a.from == b.from && a.to == b.to &&
                std::bit_cast<std::uint64_t>(a.weight) ==
                    std::bit_cast<std::uint64_t>(b.weight))
        << ctx << " edge " << e;
  }
}

/// ingest_views against the traffic path built by hand.
void expect_matches_traffic_path(const SystemModel& model,
                                 std::span<const View> views,
                                 const std::string& ctx) {
  const LocalEstimates got =
      ingest_views(model, views, MatchPolicy::kDropOrphans);
  PairingStats pairing;
  const LinkTraffic traffic = LinkTraffic::estimated_from_views(
      views, MatchPolicy::kDropOrphans, &pairing);
  expect_same_graph(got.mls, mls_graph_from_traffic(model, traffic), ctx);

  const LinkCoverage cov = link_coverage(model, traffic);
  EXPECT_EQ(got.coverage.observed_directions, cov.observed_directions) << ctx;
  EXPECT_EQ(got.coverage.total_directions, cov.total_directions) << ctx;
  EXPECT_EQ(got.coverage.absent_directions, cov.absent_directions) << ctx;
  ASSERT_EQ(got.coverage.directions.size(), cov.directions.size()) << ctx;
  for (std::size_t d = 0; d < cov.directions.size(); ++d) {
    const DirectedCoverage& a = got.coverage.directions[d];
    const DirectedCoverage& b = cov.directions[d];
    EXPECT_TRUE(a.from == b.from && a.to == b.to &&
                a.observations == b.observations && a.absent == b.absent)
        << ctx << " direction " << d;
  }

  EXPECT_EQ(got.pairing.paired, pairing.paired) << ctx;
  EXPECT_EQ(got.pairing.orphan_receives, pairing.orphan_receives) << ctx;
  EXPECT_EQ(got.pairing.duplicate_receives, pairing.duplicate_receives)
      << ctx;
  EXPECT_EQ(got.pairing.unreceived_sends, pairing.unreceived_sends) << ctx;
}

TEST(LocalEstimatesProperty, ExtremesPathMatchesTheTrafficPathBitForBit) {
  std::size_t orphans = 0, duplicates = 0, silent = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed);
    const Topology topo = random_topology(seed, rng);
    const SimResult sim = test::run_ping_pong(
        test::bounded_model(topo, 0.001, 0.05), seed, 0.3, 3);
    const std::vector<View> views = cut_views(sim.execution, rng);

    const auto kind = static_cast<Kind>((seed / 3) % 6);
    SystemModel model{topo};
    for (auto [a, b] : topo.links)
      model.set_constraint(constraint_of(kind, a, b, rng));
    ASSERT_TRUE(model.extreme_sufficient());
    expect_matches_traffic_path(model, views,
                                "seed " + std::to_string(seed));

    const LocalEstimates est =
        ingest_views(model, views, MatchPolicy::kDropOrphans);
    orphans += est.pairing.orphan_receives > 0;
    duplicates += est.pairing.duplicate_receives > 0;
    silent += est.coverage.observed_directions < est.coverage.total_directions;
  }
  EXPECT_GT(orphans, 60u);
  EXPECT_GT(duplicates, 60u);
  EXPECT_GT(silent, 10u);
}

TEST(LocalEstimates, WindowedBiasLinkTakesTheTrafficPath) {
  const Topology topo = make_ring(4);
  const SimResult sim =
      test::run_ping_pong(test::bounded_model(topo, 0.010, 0.012), 7, 0.3, 6);
  const std::vector<View> views = sim.execution.views();

  SystemModel alone = test::bounded_model(topo, 0.010, 0.012);
  ASSERT_TRUE(alone.extreme_sufficient());
  alone.set_constraint(make_windowed_bias(0, 1, 0.004, 5.0));
  EXPECT_FALSE(alone.extreme_sufficient());
  expect_matches_traffic_path(alone, views, "windowed alone");
  // The stats kernel gives the windowed link only its d̃min envelope, so
  // taking the extremes path here would have loosened the estimate.
  const Digraph envelope = mls_graph_from_stats(
      alone, LinkStats::estimated_from_views(alone, views));
  const Digraph timed = ingest_views(alone, views).mls;
  ASSERT_EQ(envelope.edge_count(), timed.edge_count());
  bool looser = false;
  for (std::size_t e = 0; e < timed.edge_count(); ++e)
    looser |= envelope.edges()[e].weight > timed.edges()[e].weight;
  EXPECT_TRUE(looser);

  SystemModel inside = test::bounded_model(topo, 0.010, 0.012);
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 1, 0.010, 0.012));
  parts.push_back(make_windowed_bias(0, 1, 0.004, 5.0));
  inside.set_constraint(make_composite(0, 1, std::move(parts)));
  EXPECT_FALSE(inside.extreme_sufficient());
  expect_matches_traffic_path(inside, views, "windowed in a composite");

  // Replacing the last windowed link restores the extremes path.
  inside.set_constraint(make_bounds(0, 1, 0.010, 0.012));
  EXPECT_TRUE(inside.extreme_sufficient());
}

TEST(LocalEstimates, StatsForAnotherTopologyAreRefused) {
  const SystemModel ring = test::bounded_model(make_ring(4), 0.01, 0.05);
  const SystemModel line = test::bounded_model(make_line(4), 0.01, 0.05);
  const SystemModel same = test::bounded_model(make_ring(4), 0.02, 0.04);
  const LinkStats stats(ring);
  EXPECT_THROW(mls_graph_from_stats(line, stats), InvalidAssumption);
  EXPECT_THROW(link_coverage(line, stats), InvalidAssumption);
  // Another model over the same link list shares the layout.
  EXPECT_EQ(mls_graph_from_stats(same, stats).edge_count(), 0u);
  EXPECT_EQ(link_coverage(same, stats).total_directions, 8u);
}

}  // namespace
}  // namespace cs
