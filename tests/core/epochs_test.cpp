#include "core/epochs.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/precision.hpp"
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

}  // namespace
}  // namespace cs
