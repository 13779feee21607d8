// Degraded-mode synchronization: coverage census, staleness carry-forward,
// fault-equivalence of the pairing layer, and the end-to-end acceptance
// scenario (lossy epoch + crashed processor => per-component report, not an
// exception).
#include "core/degraded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "core/epochs.hpp"
#include "core/local_estimates.hpp"
#include "graph/topology.hpp"
#include "proto/beacon.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

BeaconParams steady_beacons(std::size_t count) {
  BeaconParams params;
  params.warmup = Duration{0.1};
  params.period = Duration{0.1};
  params.count = count;
  return params;
}

SimOptions zero_skew_options(std::size_t n, std::uint64_t seed,
                             const FaultPlan* plan = nullptr,
                             Metrics* metrics = nullptr) {
  SimOptions opts;
  opts.start_offsets.assign(n, Duration{0.0});
  opts.seed = seed;
  opts.faults = plan;
  opts.metrics = metrics;
  return opts;
}

std::set<std::set<NodeId>> component_sets(const SccResult& scc) {
  std::set<std::set<NodeId>> out;
  for (const auto& members : scc.members())
    out.insert(std::set<NodeId>(members.begin(), members.end()));
  return out;
}

TEST(LinkCoverage, CensusesBothDirectionsOfEveryLink) {
  const SystemModel model = test::bounded_model(make_line(3), 0.01, 0.05);
  LinkTraffic traffic;
  traffic.add(0, 1, TimedObs{0.0, 0.03});
  traffic.add(0, 1, TimedObs{1.0, 0.04});
  traffic.add(1, 0, TimedObs{0.5, 0.03});
  // Link 1-2 is silent in both directions.
  const LinkCoverage cov = link_coverage(model, traffic);
  ASSERT_EQ(cov.total_directions, 4u);  // two links, two directions each
  ASSERT_EQ(cov.directions.size(), 4u);
  EXPECT_EQ(cov.observed_directions, 2u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 0.5);
  // Topology order: (0->1, 1->0), (1->2, 2->1).
  EXPECT_EQ(cov.directions[0].observations, 2u);
  EXPECT_EQ(cov.directions[1].observations, 1u);
  EXPECT_EQ(cov.directions[2].observations, 0u);
  EXPECT_EQ(cov.directions[3].observations, 0u);
}

TEST(MlsCarry, IdentityWhenDisabled) {
  MlsCarry carry(StalenessOptions{});  // carry_forward is false
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  const Digraph out1 = carry.apply(g);
  EXPECT_EQ(out1.edge_count(), 1u);
  const Digraph empty(2);
  const Digraph out2 = carry.apply(empty);
  EXPECT_EQ(out2.edge_count(), 0u);  // nothing remembered
  EXPECT_EQ(carry.last_carried(), 0u);
}

TEST(MlsCarry, WidensByAgeAndExpires) {
  StalenessOptions opts;
  opts.carry_forward = true;
  opts.widen_per_epoch = 0.1;
  opts.max_carry_epochs = 2;
  MlsCarry carry(opts);

  Digraph fresh(2);
  fresh.add_edge(0, 1, 1.0);
  fresh.add_edge(1, 0, 2.0);
  EXPECT_EQ(carry.apply(fresh).edge_count(), 2u);
  EXPECT_EQ(carry.last_carried(), 0u);

  // Epoch 2: only 0->1 observed, tighter.  1->0 carried at age 1.
  Digraph partial(2);
  partial.add_edge(0, 1, 0.5);
  const Digraph out2 = carry.apply(partial);
  ASSERT_EQ(out2.edge_count(), 2u);
  EXPECT_EQ(carry.last_carried(), 1u);
  double w01 = 0.0, w10 = 0.0;
  for (const Edge& e : out2.edges()) (e.from == 0 ? w01 : w10) = e.weight;
  EXPECT_DOUBLE_EQ(w01, 0.5);
  EXPECT_DOUBLE_EQ(w10, 2.0 + 0.1);

  // Epoch 3: nothing observed.  0->1 age 1, 1->0 age 2 — both carried.
  const Digraph out3 = carry.apply(Digraph(2));
  ASSERT_EQ(out3.edge_count(), 2u);
  EXPECT_EQ(carry.last_carried(), 2u);
  for (const Edge& e : out3.edges())
    (e.from == 0 ? w01 : w10) = e.weight;
  EXPECT_DOUBLE_EQ(w01, 0.5 + 0.1);
  EXPECT_DOUBLE_EQ(w10, 2.0 + 0.2);

  // Epoch 4: 1->0 would be age 3 > max_carry_epochs — expired.
  const Digraph out4 = carry.apply(Digraph(2));
  ASSERT_EQ(out4.edge_count(), 1u);
  EXPECT_EQ(carry.last_carried(), 1u);
  EXPECT_EQ(out4.edges()[0].from, 0u);
  EXPECT_DOUBLE_EQ(out4.edges()[0].weight, 0.5 + 0.2);

  carry.reset();
  EXPECT_EQ(carry.apply(Digraph(2)).edge_count(), 0u);
}

TEST(MlsCarry, ResetsOnInstanceShapeChange) {
  StalenessOptions opts;
  opts.carry_forward = true;
  MlsCarry carry(opts);
  Digraph g2(2);
  g2.add_edge(0, 1, 1.0);
  carry.apply(g2);
  // Different node count: the memory must not leak across instances.
  const Digraph out = carry.apply(Digraph(3));
  EXPECT_EQ(out.edge_count(), 0u);
  EXPECT_EQ(carry.last_carried(), 0u);
}

// Satellite property: under omission + duplication faults, pairing with
// kDropOrphans over the faulty views must recover exactly the surviving
// message set — and the pipeline must produce the same corrections as a
// strict run over views with the duplicate re-deliveries scrubbed out.
TEST(FaultEquivalence, DropOrphansMatchesCleanedStrictRun) {
  const SystemModel model = test::bounded_model(make_complete(4), 0.01, 0.05);
  FaultPlan plan;
  plan.default_link.drop_probability = 0.2;
  plan.default_link.duplicate_probability = 0.3;
  plan.default_link.duplicate_lag = 0.01;
  const SimResult sim =
      simulate(model, make_beacon(steady_beacons(15)),
               zero_skew_options(4, 31, &plan));
  ASSERT_GT(sim.fault_dropped_messages, 0u);
  ASSERT_GT(sim.duplicated_messages, 0u);
  const auto faulty = sim.execution.views();

  // Scrub the duplicates by hand: keep only the first receive of each id.
  std::vector<View> cleaned = faulty;
  for (View& v : cleaned) {
    std::unordered_set<MessageId> seen;
    std::vector<ViewEvent> kept;
    kept.reserve(v.events.size());
    for (const ViewEvent& e : v.events) {
      if (e.kind == EventKind::kReceive && !seen.insert(e.msg).second)
        continue;
      kept.push_back(e);
    }
    v.events = std::move(kept);
  }

  // Pairing under kDropOrphans counts every dropped send as unreceived and
  // pairs each surviving message exactly once.
  PairingStats stats;
  const auto paired =
      pair_messages(faulty, MatchPolicy::kDropOrphans, &stats);
  const auto strict = pair_messages(cleaned, MatchPolicy::kStrict);
  ASSERT_EQ(paired.size(), strict.size());
  std::set<MessageId> ids;
  for (const PairedMessage& m : paired) ids.insert(m.id);
  EXPECT_EQ(ids.size(), paired.size());  // no id paired twice
  EXPECT_EQ(stats.unreceived_sends, sim.fault_dropped_messages);
  EXPECT_EQ(stats.duplicate_receives, sim.duplicated_messages);
  // A dropped message has no receive, hence can never be paired.
  std::unordered_set<MessageId> received;
  for (const View& v : faulty)
    for (const ViewEvent& e : v.receives()) received.insert(e.msg);
  for (const MessageId id : ids) EXPECT_TRUE(received.contains(id));

  // Same surviving message set => same corrections, exactly.
  SyncOptions tolerant;
  tolerant.match = MatchPolicy::kDropOrphans;
  const SyncOutcome a = synchronize(model, faulty, tolerant);
  const SyncOutcome b = synchronize(model, cleaned);
  ASSERT_TRUE(a.bounded());
  ASSERT_TRUE(b.bounded());
  EXPECT_DOUBLE_EQ(a.optimal_precision.finite(),
                   b.optimal_precision.finite());
  ASSERT_EQ(a.corrections.size(), b.corrections.size());
  for (std::size_t p = 0; p < a.corrections.size(); ++p)
    EXPECT_DOUBLE_EQ(a.corrections[p], b.corrections[p]);
}

// Sliding-window epochs with an outage: without carry-forward the epoch
// whose window saw no 1<->2 traffic is partitioned; with carry-forward its
// precision stays bounded, widened by staleness.
TEST(DegradedEpochs, CarryForwardBridgesAnOutage) {
  const SystemModel model = test::bounded_model(make_line(3), 0.001, 0.003);
  FaultPlan plan;
  plan.link(1, 2).down.push_back(TimeWindow{RealTime{1.0}});
  const SimResult sim =
      simulate(model, make_beacon(steady_beacons(40)),
               zero_skew_options(3, 41, &plan));
  const auto views = sim.execution.views();
  const std::vector<ClockTime> boundaries{ClockTime{1.0}, ClockTime{1.8},
                                          ClockTime{2.6}};
  EpochOptions opts;
  opts.window = Duration{0.8};  // sliding window: old probes age out

  const auto starved =
      epochal_synchronize_incremental(model, views, boundaries, opts);
  ASSERT_EQ(starved.size(), 3u);
  EXPECT_TRUE(starved[0].sync.bounded());  // outage starts at 1.0
  EXPECT_FALSE(starved[2].sync.bounded());
  EXPECT_LT(starved[2].coverage.fraction(), 1.0);
  EXPECT_EQ(starved[2].carried_edges, 0u);
  EXPECT_EQ(component_sets(starved[2].sync.components),
            (std::set<std::set<NodeId>>{{0, 1}, {2}}));

  opts.staleness.carry_forward = true;
  opts.staleness.widen_per_epoch = 0.01;
  const auto carried =
      epochal_synchronize_incremental(model, views, boundaries, opts);
  ASSERT_TRUE(carried[2].sync.bounded());
  EXPECT_GT(carried[2].carried_edges, 0u);
  // Staleness widening can only loosen the guarantee of the first epoch.
  EXPECT_GE(carried[2].sync.optimal_precision.finite(),
            carried[0].sync.optimal_precision.finite() - 1e-12);

  // The driver agrees in degraded mode with a from-scratch synchronize_mls
  // of every epoch's window, carried through the same staleness memory.
  MlsCarry carry(opts.staleness);
  ASSERT_EQ(carried.size(), boundaries.size());
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    std::vector<View> cuts;
    for (const View& v : views)
      cuts.push_back(v.window(boundaries[k] - opts.window, boundaries[k]));
    const LinkTraffic traffic =
        LinkTraffic::estimated_from_views(cuts, MatchPolicy::kDropOrphans);
    const SyncOutcome scratch = synchronize_mls(
        carry.apply(mls_graph_from_traffic(model, traffic)), opts.sync);
    ASSERT_EQ(carried[k].sync.bounded(), scratch.bounded());
    ASSERT_EQ(carried[k].carried_edges, carry.last_carried());
    for (std::size_t p = 0; p < scratch.corrections.size(); ++p)
      EXPECT_NEAR(carried[k].sync.corrections[p], scratch.corrections[p],
                  1e-9);
  }
}

TEST(DegradedEpochs, CarriedEdgesExpireIntoPartition) {
  const SystemModel model = test::bounded_model(make_line(3), 0.001, 0.003);
  FaultPlan plan;
  plan.link(1, 2).down.push_back(TimeWindow{RealTime{1.0}});
  const SimResult sim =
      simulate(model, make_beacon(steady_beacons(40)),
               zero_skew_options(3, 43, &plan));
  const auto views = sim.execution.views();
  const std::vector<ClockTime> boundaries{ClockTime{1.0}, ClockTime{1.8},
                                          ClockTime{2.6}, ClockTime{3.4}};
  EpochOptions opts;
  opts.window = Duration{0.8};
  opts.staleness.carry_forward = true;
  opts.staleness.widen_per_epoch = 0.01;
  opts.staleness.max_carry_epochs = 1;

  const auto epochs =
      epochal_synchronize_incremental(model, views, boundaries, opts);
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_TRUE(epochs[1].sync.bounded());   // age 1: still carried
  EXPECT_GT(epochs[1].carried_edges, 0u);
  EXPECT_FALSE(epochs[2].sync.bounded());  // age 2 > max: expired
  EXPECT_FALSE(epochs[3].sync.bounded());
}

// The ISSUE's end-to-end acceptance scenario: a 20%-loss epoch with a
// crashed processor yields finite per-component corrections and a correct
// component report instead of an exception.
TEST(DegradedEpochs, LossyEpochWithCrashReportsPerComponentPrecision) {
  const SystemModel model = test::bounded_model(make_ring(4), 0.01, 0.05);
  Metrics metrics;
  FaultPlan plan;
  plan.default_link.drop_probability = 0.2;
  plan.crash(3, RealTime{0.05});  // crashed before any beacon fires
  SimOptions sim_opts = zero_skew_options(4, 47, &plan, &metrics);
  const SimResult sim =
      simulate(model, make_beacon(steady_beacons(20)), sim_opts);
  const auto views = sim.execution.views();

  EpochOptions opts;
  opts.sync.metrics = &metrics;
  const std::vector<ClockTime> boundaries{ClockTime{10.0}};
  const auto epochs =
      epochal_synchronize_incremental(model, views, boundaries, opts);
  ASSERT_EQ(epochs.size(), 1u);
  const EpochOutcome& ep = epochs[0];

  // Partitioned, not thrown: overall precision is +inf but every processor
  // still gets a finite correction and every component a finite precision.
  EXPECT_FALSE(ep.sync.bounded());
  ASSERT_EQ(ep.sync.corrections.size(), 4u);
  for (const double c : ep.sync.corrections) EXPECT_TRUE(std::isfinite(c));
  EXPECT_EQ(component_sets(ep.sync.components),
            (std::set<std::set<NodeId>>{{0, 1, 2}, {3}}));
  ASSERT_EQ(ep.sync.component_precision.size(),
            ep.sync.components.component_count);
  for (const double p : ep.sync.component_precision) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
  }

  // The coverage census names the starved directions: both links of the
  // crashed processor, both ways.
  std::size_t starved = 0;
  for (const DirectedCoverage& d : ep.coverage.directions)
    if (d.observations == 0) {
      ++starved;
      EXPECT_TRUE(d.from == 3 || d.to == 3);
    }
  EXPECT_EQ(starved, 4u);
  EXPECT_EQ(metrics.counter("degraded.unobserved_directions"), 4u);
  EXPECT_EQ(metrics.counter("pipeline.epochs"), 1u);
  EXPECT_GT(metrics.counter("fault.dropped"), 0u);
}

}  // namespace
}  // namespace cs
