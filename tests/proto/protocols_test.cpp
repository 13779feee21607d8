// Probing protocols driving the pipeline end to end.
#include <gtest/gtest.h>

#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "proto/beacon.hpp"
#include "proto/ping_pong.hpp"
#include "support/builders.hpp"
#include "support/flood.hpp"

namespace cs {
namespace {

SimOptions options_for(const SystemModel& model, std::uint64_t seed,
                       double skew) {
  Rng rng(seed);
  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), skew, rng);
  opts.seed = seed;
  return opts;
}

TEST(Beacon, BidirectionalBeaconsBoundTheInstance) {
  SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.05);
  BeaconParams params;
  params.warmup = Duration{0.5};
  params.count = 3;
  const SimResult sim =
      simulate(model, make_beacon(params), options_for(model, 4, 0.3));
  // n nodes x 2 neighbors x count beacons, one-way each.
  EXPECT_EQ(sim.delivered_messages, 5u * 2u * 3u);
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  EXPECT_TRUE(out.bounded());
  EXPECT_LE(realized_precision(sim.execution.start_times(),
                               out.corrections),
            out.optimal_precision.finite() + 1e-9);
}

TEST(Beacon, OneWayTrafficUnderLowerBoundsIsUnbounded) {
  // Odd processors stay silent; on a star with hub 0 every link sees
  // traffic in at most one direction.  Lower-bound-only assumptions then
  // give no finite estimate in the reverse orientation.
  SystemModel model = test::lower_bound_model(make_star(4), 0.01);
  BeaconParams params;
  params.everyone_beacons = false;
  const SimResult sim =
      simulate(model, make_beacon(params), options_for(model, 5, 0.2));
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  EXPECT_FALSE(out.bounded());
  EXPECT_GT(out.components.component_count, 1u);
}

TEST(Beacon, OneWayTrafficUnderFiniteBoundsIsBounded) {
  // Same silent-odd traffic, but finite upper bounds make the reverse
  // orientation informative (Cor 6.3's ub - d̃max term).
  SystemModel model = test::bounded_model(make_star(4), 0.01, 0.05);
  BeaconParams params;
  params.everyone_beacons = false;
  const SimResult sim =
      simulate(model, make_beacon(params), options_for(model, 6, 0.2));
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  EXPECT_TRUE(out.bounded());
}

TEST(Flood, TokensTraverseTheNetwork) {
  SystemModel model = test::bounded_model(make_line(6), 0.001, 0.002);
  FloodParams params;
  params.ttl = 10;
  const SimResult sim =
      simulate(model, make_flood(params), options_for(model, 7, 0.1));
  // Every processor sees every other processor's token at least once, so
  // at least n*(n-1) receive events... conservatively just require plenty
  // of traffic and a bounded instance.
  EXPECT_GE(sim.delivered_messages, 2u * 5u);
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  EXPECT_TRUE(out.bounded());
}

TEST(Flood, TtlZeroDoesNotPropagate) {
  SystemModel model = test::bounded_model(make_line(3), 0.001, 0.002);
  FloodParams params;
  params.ttl = 0;
  const SimResult sim =
      simulate(model, make_flood(params), options_for(model, 8, 0.1));
  // Each origin reaches only direct neighbors: line has 2*2 directed
  // neighbor pairs.
  EXPECT_EQ(sim.delivered_messages, 4u);
}

TEST(PingPong, ZeroRoundsMeansSilence) {
  SystemModel model = test::bounded_model(make_line(3), 0.01, 0.02);
  PingPongParams params;
  params.rounds = 0;
  const SimResult sim =
      simulate(model, make_ping_pong(params), options_for(model, 9, 0.1));
  EXPECT_EQ(sim.delivered_messages, 0u);
  // No information at all: every pair unbounded, per-node components.
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  EXPECT_FALSE(out.bounded());
  EXPECT_EQ(out.components.component_count, 3u);
  for (double c : out.corrections) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(PingPong, MoreRoundsNeverHurtPrecision) {
  // Bounded delays below the probe spacing keep the per-link RNG draw
  // order identical across runs, so the k-round execution's messages are a
  // superset of the (k-1)-round one's and the estimates only tighten.
  SystemModel model = test::bounded_model(make_ring(4), 0.005, 0.02);
  double prev = kInfDist;
  for (std::size_t rounds : {1u, 4u, 16u}) {
    const SimResult sim = test::run_ping_pong(model, 10, 0.2, rounds);
    const auto views = sim.execution.views();
    const SyncOutcome out = synchronize(model, views);
    ASSERT_TRUE(out.bounded());
    EXPECT_LE(out.optimal_precision.finite(), prev + 1e-12);
    prev = out.optimal_precision.finite();
  }
}

}  // namespace
}  // namespace cs
