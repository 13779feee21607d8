#include "core/epochs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "core/local_estimates.hpp"
#include "core/precision.hpp"
#include "sim/fault_plan.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(ViewPrefix, KeepsStartAndEarlierEvents) {
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5, 0.6}, {});
  const View full = e.views()[0];
  // Sends at clock ~10 and ~11 (builder spacing); cut between them.
  const View cut = full.prefix(ClockTime{10.5});
  EXPECT_EQ(cut.sends().size(), 1u);
  EXPECT_EQ(cut.events.front().kind, EventKind::kStart);
  const View none = full.prefix(ClockTime{0.0});
  EXPECT_EQ(none.events.size(), 1u);  // just the start event
}

TEST(PairMessages, DropOrphansPolicy) {
  // Receiver's prefix keeps a receive whose send is cut away at the
  // sender's side.
  const Execution e = test::two_node_execution(5.0, 0.0, {0.5}, {});
  // Send at sender clock 15 (builder base); prefix below that drops it.
  auto views = e.views();
  views[0] = views[0].prefix(ClockTime{10.0});  // drops the send
  EXPECT_THROW(pair_messages(views, MatchPolicy::kStrict),
               InvalidExecution);
  EXPECT_TRUE(pair_messages(views, MatchPolicy::kDropOrphans).empty());
}

TEST(Epochs, BoundariesMustIncrease) {
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, 1, 0.1);
  const auto views = sim.execution.views();
  const std::vector<ClockTime> bad{ClockTime{2.0}, ClockTime{1.0}};
  EXPECT_THROW(epochal_synchronize_incremental(model, views, bad), Error);
}

TEST(Epochs, PrecisionTightensWithMoreTraffic) {
  // Drift-free: each later epoch sees a superset of the probes, so the
  // per-epoch optimal precision is non-increasing.
  SystemModel model = test::bounded_model(make_ring(4), 0.005, 0.02);
  Rng rng(7);
  SimOptions opts;
  opts.start_offsets = random_start_offsets(4, 0.2, rng);
  opts.seed = 7;
  PingPongParams params;
  params.warmup = Duration{0.3};
  params.spacing = Duration{0.5};
  params.rounds = 8;  // probes at clock 0.3, 0.8, ..., 3.8
  const SimResult sim = simulate(model, make_ping_pong(params), opts);
  const auto views = sim.execution.views();

  const std::vector<ClockTime> boundaries{
      ClockTime{1.0}, ClockTime{2.0}, ClockTime{3.0}, ClockTime{10.0}};
  const auto epochs = epochal_synchronize_incremental(model, views, boundaries);
  ASSERT_EQ(epochs.size(), 4u);
  double prev = kInfDist;
  for (const EpochOutcome& ep : epochs) {
    ASSERT_TRUE(ep.sync.bounded());
    EXPECT_LE(ep.sync.optimal_precision.finite(), prev + 1e-12);
    prev = ep.sync.optimal_precision.finite();
  }

  // The final epoch sees everything: it must match the full-view run.
  const SyncOutcome full = synchronize(model, views);
  EXPECT_NEAR(epochs.back().sync.optimal_precision.finite(),
              full.optimal_precision.finite(), 1e-12);
}

TEST(Epochs, EarlyEpochBeforeTrafficIsUnbounded) {
  SystemModel model = test::bounded_model(make_line(3), 0.005, 0.02);
  const SimResult sim = test::run_ping_pong(model, 2, 0.1);
  const auto views = sim.execution.views();
  const std::vector<ClockTime> boundaries{ClockTime{0.01}, ClockTime{50.0}};
  const auto epochs = epochal_synchronize_incremental(model, views, boundaries);
  EXPECT_FALSE(epochs[0].sync.bounded());
  EXPECT_TRUE(epochs[1].sync.bounded());
}

TEST(Epochs, CorrectionsSoundAtEveryEpoch) {
  SystemModel model = test::bounded_model(make_ring(5), 0.005, 0.02);
  Rng rng(21);
  SimOptions opts;
  opts.start_offsets = random_start_offsets(5, 0.2, rng);
  opts.seed = 21;
  PingPongParams params;
  params.warmup = Duration{0.3};
  params.spacing = Duration{0.4};
  params.rounds = 6;
  const SimResult sim = simulate(model, make_ping_pong(params), opts);
  const auto views = sim.execution.views();
  const auto starts = sim.execution.start_times();

  const std::vector<ClockTime> boundaries{ClockTime{1.0}, ClockTime{2.0},
                                          ClockTime{5.0}};
  for (const EpochOutcome& ep :
       epochal_synchronize_incremental(model, views, boundaries)) {
    if (!ep.sync.bounded()) continue;
    EXPECT_LE(realized_precision(starts, ep.sync.corrections),
              ep.sync.optimal_precision.finite() + 1e-9);
  }
}

// ---- One ingest pass across prefix epochs ----

std::vector<View> prefixes(std::span<const View> views, ClockTime cutoff) {
  std::vector<View> out;
  out.reserve(views.size());
  for (const View& v : views) out.push_back(v.prefix(cutoff));
  return out;
}

/// An epoch outcome's ingest against ingest_views on the same cut: the
/// m̃ls edges bit for bit, the coverage census and the pairing tallies.
void expect_same_ingest(const EpochOutcome& epoch, const LocalEstimates& ref) {
  const auto got = epoch.sync.mls_graph.edges();
  const auto want = ref.mls.edges();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_EQ(got[e].from, want[e].from);
    EXPECT_EQ(got[e].to, want[e].to);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e].weight),
              std::bit_cast<std::uint64_t>(want[e].weight))
        << "edge " << e;
  }
  const LinkCoverage& cov = epoch.coverage;
  EXPECT_EQ(cov.observed_directions, ref.coverage.observed_directions);
  EXPECT_EQ(cov.total_directions, ref.coverage.total_directions);
  EXPECT_EQ(cov.absent_directions, ref.coverage.absent_directions);
  ASSERT_EQ(cov.directions.size(), ref.coverage.directions.size());
  for (std::size_t d = 0; d < cov.directions.size(); ++d) {
    EXPECT_EQ(cov.directions[d].from, ref.coverage.directions[d].from);
    EXPECT_EQ(cov.directions[d].to, ref.coverage.directions[d].to);
    EXPECT_EQ(cov.directions[d].observations,
              ref.coverage.directions[d].observations);
  }
  EXPECT_EQ(epoch.pairing.paired, ref.pairing.paired);
  EXPECT_EQ(epoch.pairing.orphan_receives, ref.pairing.orphan_receives);
  EXPECT_EQ(epoch.pairing.duplicate_receives, ref.pairing.duplicate_receives);
  EXPECT_EQ(epoch.pairing.unreceived_sends, ref.pairing.unreceived_sends);
}

struct FaultyRun {
  SystemModel model;
  std::vector<View> views;
};

/// A small simulated run with losses, duplicate deliveries, delay spikes
/// and a crash window.  The delays are drawn within [0.002, 0.05]; the
/// model the pipeline runs declares [0.002, 1] or only the lower bound, so
/// that no lag or spike contradicts it.
FaultyRun random_faulty_run(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 3 + rng.uniform_int(5);
  const Topology topo = rng.uniform_int(2) == 0 ? make_ring(n)
                                                : make_complete(n);
  const SystemModel sampled = test::bounded_model(topo, 0.002, 0.05);
  SystemModel model = rng.uniform_int(2) == 0
                          ? test::lower_bound_model(topo, 0.002)
                          : test::bounded_model(topo, 0.002, 1.0);

  FaultPlan plan;
  plan.seed = seed * 7 + 1;
  plan.default_link.drop_probability = rng.uniform(0.0, 0.3);
  plan.default_link.duplicate_probability = rng.uniform(0.0, 0.4);
  plan.default_link.duplicate_lag = 0.03;
  plan.default_link.spike_probability = rng.uniform(0.0, 0.3);
  plan.default_link.spike_magnitude = 0.1;
  const double crash_at = rng.uniform(0.4, 1.5);
  plan.crash(static_cast<ProcessorId>(rng.uniform_int(n)), RealTime{crash_at},
             RealTime{crash_at + rng.uniform(0.1, 0.6)});

  SimOptions opts;
  opts.start_offsets = random_start_offsets(n, 0.2, rng);
  opts.seed = seed;
  opts.faults = &plan;
  opts.check_admissible = false;
  PingPongParams probe;
  probe.warmup = Duration{0.3};
  probe.spacing = Duration{rng.uniform(0.02, 0.2)};
  probe.rounds = 4 + rng.uniform_int(8);
  const SimResult sim = simulate(sampled, make_ping_pong(probe), opts);
  return FaultyRun{std::move(model), sim.execution.views()};
}

TEST(EpochIngest, OnePassMatchesPerEpochCuts) {
  std::size_t duplicates = 0, orphans = 0, unreceived = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultyRun run = random_faulty_run(seed);
    for (const View& v : run.views) ASSERT_TRUE(v.in_clock_order());
    ClockTime last{0.0};
    for (const View& v : run.views)
      if (v.events.size() > 1) last = std::max(last, v.events.back().when);

    // One boundary before any traffic, random ones inside it, one past
    // its last event.
    Rng rng(seed + 1000);
    std::vector<ClockTime> boundaries{ClockTime{0.05}};
    double t = 0.05;
    for (std::size_t k = rng.uniform_int(6); k > 0; --k) {
      t += rng.uniform(0.01, 0.6);
      boundaries.push_back(ClockTime{t});
    }
    boundaries.push_back(ClockTime{std::max(t, last.sec) + 1.0});

    const std::vector<EpochOutcome> epochs =
        epochal_synchronize_incremental(run.model, run.views, boundaries);
    ASSERT_EQ(epochs.size(), boundaries.size());
    EXPECT_EQ(epochs.front().pairing.paired, 0u);
    for (std::size_t k = 0; k < epochs.size(); ++k) {
      SCOPED_TRACE("epoch " + std::to_string(k));
      const std::vector<View> cut = prefixes(run.views, boundaries[k]);
      expect_same_ingest(epochs[k], ingest_views(run.model, cut,
                                                 MatchPolicy::kDropOrphans));
      duplicates += epochs[k].pairing.duplicate_receives;
      orphans += epochs[k].pairing.orphan_receives;
      unreceived += epochs[k].pairing.unreceived_sends;
    }
  }
  // The runs exercise every tally.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(orphans, 0u);
  EXPECT_GT(unreceived, 0u);
}

/// Views of three processors built by hand: each entry is (pid, kind,
/// clock, message id, peer).
std::vector<View> hand_views(
    std::initializer_list<std::tuple<ProcessorId, EventKind, double,
                                     MessageId, ProcessorId>>
        events) {
  std::vector<View> views(3);
  for (ProcessorId p = 0; p < 3; ++p) {
    views[p].pid = p;
    ViewEvent start;
    start.kind = EventKind::kStart;
    views[p].events.push_back(start);
  }
  for (const auto& [pid, kind, clock, msg, peer] : events) {
    ViewEvent e;
    e.kind = kind;
    e.when = ClockTime{clock};
    e.msg = msg;
    e.peer = peer;
    views[pid].events.push_back(e);
  }
  return views;
}

std::optional<std::string> invalid_execution_of(
    const SystemModel& model, std::span<const View> views,
    std::vector<ClockTime> boundaries) {
  try {
    (void)epochal_synchronize_incremental(model, views, boundaries);
  } catch (const InvalidExecution& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

TEST(EpochIngest, DuplicateSendIdThrowsAtTheCutThatHoldsBoth) {
  const SystemModel model = test::bounded_model(make_complete(3), 0.01, 0.5);
  // Message 1 is sent twice by processor 0: at clock 1.0 and at 3.0.
  const std::vector<View> views = hand_views({
      {0, EventKind::kSend, 1.0, 1, 1},
      {1, EventKind::kReceive, 1.1, 1, 0},
      {0, EventKind::kSend, 3.0, 1, 2},
  });
  EXPECT_EQ(invalid_execution_of(model, views, {ClockTime{2.0},
                                                ClockTime{4.0}}),
            "duplicate message id among sends");
  // The per-cut ingest throws at the second boundary and not the first.
  EXPECT_NO_THROW(ingest_views(model, prefixes(views, ClockTime{2.0}),
                               MatchPolicy::kDropOrphans));
  EXPECT_THROW(ingest_views(model, prefixes(views, ClockTime{4.0}),
                            MatchPolicy::kDropOrphans),
               InvalidExecution);
  // Past the last boundary the second send is in no cut.
  EXPECT_EQ(invalid_execution_of(model, views, {ClockTime{2.0},
                                                ClockTime{2.5}}),
            std::nullopt);
}

TEST(EpochIngest, EndpointMismatchThrowsThePairingMessage) {
  const SystemModel model = test::bounded_model(make_complete(3), 0.01, 0.5);
  // Processor 0 sends message 5 to 1, but processor 2 receives it, before
  // the send is in any cut: an orphan until boundary 2.
  const std::vector<View> views = hand_views({
      {2, EventKind::kReceive, 0.5, 5, 0},
      {0, EventKind::kSend, 1.5, 5, 1},
  });
  std::string pairing_error;
  try {
    (void)pair_messages(views, MatchPolicy::kDropOrphans);
  } catch (const InvalidExecution& e) {
    pairing_error = e.what();
  }
  ASSERT_EQ(pairing_error, "message endpoints disagree between views");
  EXPECT_EQ(invalid_execution_of(model, views, {ClockTime{1.0}}),
            std::nullopt);
  EXPECT_EQ(invalid_execution_of(model, views, {ClockTime{1.0},
                                                ClockTime{2.0}}),
            pairing_error);
}

TEST(EpochIngest, ViewOutOfClockOrderTakesThePerEpochPathAndMatches) {
  const FaultyRun run = random_faulty_run(5);
  // Swap two adjacent events of different times in one view, the earlier a
  // send or a receive and not both receives: every prefix keeps the same
  // events and every receive keeps its place among the receives, so
  // pairing cannot tell.
  std::vector<View> shuffled = run.views;
  bool swapped = false;
  ClockTime between{0.0};
  for (View& v : shuffled) {
    for (std::size_t i = 1; i + 1 < v.events.size() && !swapped; ++i) {
      ViewEvent& a = v.events[i];
      ViewEvent& b = v.events[i + 1];
      const bool counted =
          a.kind == EventKind::kSend || a.kind == EventKind::kReceive;
      if (a.when < b.when && counted &&
          !(a.kind == EventKind::kReceive && b.kind == EventKind::kReceive)) {
        between = ClockTime{(a.when.sec + b.when.sec) / 2};
        std::swap(a, b);
        swapped = true;
      }
    }
    if (swapped) {
      EXPECT_FALSE(v.in_clock_order());
      break;
    }
  }
  ASSERT_TRUE(swapped);

  // A cut between the swapped events' times holds the earlier one only.
  // Read as a leading run of the shuffled view it would hold neither, and
  // the pairing tallies would count one send or receive fewer: this
  // boundary fails the comparison unless the cut is taken per epoch.
  std::vector<ClockTime> boundaries{ClockTime{0.5}, ClockTime{0.9},
                                    ClockTime{1.4}, ClockTime{10.0}};
  ASSERT_TRUE(std::none_of(boundaries.begin(), boundaries.end(),
                           [&](ClockTime t) { return t == between; }));
  boundaries.insert(std::upper_bound(boundaries.begin(), boundaries.end(),
                                     between),
                    between);
  const auto one_pass =
      epochal_synchronize_incremental(run.model, run.views, boundaries);
  const auto per_epoch =
      epochal_synchronize_incremental(run.model, shuffled, boundaries);
  ASSERT_EQ(one_pass.size(), per_epoch.size());
  for (std::size_t k = 0; k < one_pass.size(); ++k) {
    SCOPED_TRACE("epoch " + std::to_string(k));
    expect_same_ingest(
        per_epoch[k],
        ingest_views(run.model, prefixes(run.views, boundaries[k]),
                     MatchPolicy::kDropOrphans));
    expect_same_ingest(
        one_pass[k],
        ingest_views(run.model, prefixes(shuffled, boundaries[k]),
                     MatchPolicy::kDropOrphans));
    EXPECT_EQ(one_pass[k].sync.corrections, per_epoch[k].sync.corrections);
  }
}

}  // namespace
}  // namespace cs
