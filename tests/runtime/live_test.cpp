// End-to-end live-runtime tests: the §7 agent protocol over every
// transport.  The acceptance contract (ISSUE 4 / docs/RUNTIME.md):
//
//   * deterministic loopback — converged corrections equal the offline
//     pipeline over the recorded views bit-for-bit, every epoch;
//   * every transport — realized precision (ground-truth corrected-clock
//     spread) within the claimed bound, Thm 4.6 live;
//   * faults + grace watchdog — degraded epochs still compute, the run
//     never silently hangs.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "runtime/daemon.hpp"
#include "runtime/host.hpp"
#include "runtime/loopback.hpp"
#include "support/builders.hpp"
#include "trace/writer.hpp"

namespace cs {
namespace {

void expect_realized_within_bound(const LiveReport& report) {
  for (const LiveEpochReport& ep : report.epochs) {
    ASSERT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    ASSERT_TRUE(ep.realized_precision.has_value()) << "epoch " << ep.epoch;
    // Thm 4.6: on admissible runs the realized spread of corrected clocks
    // is bounded by the claimed (optimal) precision.
    EXPECT_LE(*ep.realized_precision, *ep.claimed_precision)
        << "epoch " << ep.epoch;
  }
}

TEST(LiveLoopback, EightAgentsMatchOfflineBitForBit) {
  SystemModel model = test::bounded_model(make_complete(8), 0.001, 0.05);
  LiveConfig config;
  config.seed = 42;
  config.agent.epochs = 3;

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "loopback");
  EXPECT_EQ(report.agents, 8u);
  ASSERT_TRUE(report.converged);
  ASSERT_TRUE(report.checked);
  EXPECT_TRUE(report.all_match);
  ASSERT_EQ(report.epochs.size(), 3u);
  for (const LiveEpochReport& ep : report.epochs) {
    EXPECT_FALSE(ep.degraded);
    EXPECT_EQ(ep.reports_absorbed, 8u);
    EXPECT_EQ(ep.acks, 8u);
    EXPECT_TRUE(ep.matches_offline);
    // Bit-for-bit, not approximately: same views, same pipeline.
    EXPECT_EQ(ep.corrections, ep.offline_corrections);
    EXPECT_EQ(ep.claimed_precision, ep.offline_precision);
  }
  expect_realized_within_bound(report);
  EXPECT_GT(report.metrics.counter("runtime.dispatched"), 0u);
  EXPECT_GT(report.metrics.counter("runtime.delivered"), 0u);
}

TEST(LiveLoopback, LaterEpochsOnlyTightenThePrecision) {
  // Cumulative traffic ⇒ the m̃ls graph only gains edges ⇒ the optimal
  // precision is non-increasing across epochs (§7's observation).
  SystemModel model = test::bounded_model(make_complete(6), 0.0, 0.1);
  LiveConfig config;
  config.seed = 5;
  config.agent.epochs = 3;

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  for (std::size_t k = 1; k < report.epochs.size(); ++k)
    EXPECT_LE(*report.epochs[k].claimed_precision,
              *report.epochs[k - 1].claimed_precision);
}

TEST(LiveLoopback, SparseTopologyConvergesToo) {
  SystemModel model = test::bounded_model(make_ring(8), 0.002, 0.03);
  LiveConfig config;
  config.seed = 17;
  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.all_match);
  expect_realized_within_bound(report);
}

TEST(LiveLoopback, GraceWatchdogComputesDegradedEpochsUnderDrop) {
  SystemModel model = test::bounded_model(make_complete(6), 0.001, 0.05);
  LiveConfig config;
  config.seed = 23;
  config.drop_probability = 0.4;  // heavy injected loss
  config.agent.epochs = 2;
  config.agent.grace = Duration{0.5};

  const LiveReport report = run_live(model, config);
  // Under 40% loss convergence (full dissemination) is not guaranteed —
  // but the watchdog guarantees every epoch still *computes* instead of
  // the leader hanging forever on missing reports.
  ASSERT_EQ(report.epochs.size(), 2u);
  for (const LiveEpochReport& ep : report.epochs) {
    EXPECT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    EXPECT_GE(ep.reports_absorbed, 1u);
    EXPECT_EQ(ep.degraded, ep.reports_absorbed < report.agents);
  }
  EXPECT_GT(report.metrics.counter("runtime.dropped"), 0u);
}

TEST(LiveLoopback, SixteenAgentRunIsPinned) {
  // The benchmark's live-loopback input.  How a payload travels, how the
  // host's heap pops and how it counts are free to change; the run they
  // dispatch is not: same events, same counters, same corrections to the
  // last bit.
  SystemModel model = test::bounded_model(make_complete(16), 0.001, 0.050);
  LiveConfig config;
  config.seed = 1;
  config.agent.epochs = 4;

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.all_match);
  EXPECT_EQ(report.dispatched, 21648u);
  EXPECT_EQ(report.metrics.counter("runtime.dispatched"), 21648u);
  EXPECT_EQ(report.metrics.counter("runtime.sent"), 7680u);
  EXPECT_EQ(report.metrics.counter("runtime.delivered"), 7680u);
  // A counter that stayed zero is not published.
  EXPECT_EQ(report.metrics.counters().count("runtime.dropped"), 0u);

  const double claimed[] = {0x1.88b34ef80064p-10, 0x1.9aa6846efa495p-11,
                            0x1.f836157c07fbp-12, 0x1.67ab7f29e1ap-12};
  const std::vector<double> corrections[] = {
      {0x0p+0, -0x1.09697ceb9203ep-7, -0x1.04b41a85e40dap-6,
       -0x1.c7a526279e5p-11, -0x1.ae5b28133f1fp-8, -0x1.388df86e8a7c4p-5,
       -0x1.461b536d78d5ep-5, -0x1.70a19f878a833p-6, 0x1.1ade9018d005p-8,
       -0x1.8d825ff4598p-14, -0x1.213d04554d98p-9, -0x1.59a5018b7c8b6p-5,
       -0x1.66011685108bp-6, -0x1.0eb2e772606e6p-6, -0x1.490b8e5b46968p-5,
       -0x1.e2c545143c454p-7},
      {0x0p+0, -0x1.0607a61a01f4cp-7, -0x1.011020fe7267p-6,
       -0x1.dff7e7129c36p-11, -0x1.ba030490eca74p-8, -0x1.363e223cd6aaep-5,
       -0x1.471c3e1a450c2p-5, -0x1.72a374e122ef9p-6, 0x1.17a15c905091ap-8,
       0x1.04131c1b25ap-15, -0x1.3bf45072586a8p-9, -0x1.589d3b947b954p-5,
       -0x1.6217fd6d1ad46p-6, -0x1.0cb69f811691cp-6, -0x1.442ba18b15f2p-5,
       -0x1.e5f156d9d7927p-7},
      {0x0p+0, -0x1.0f1d5efa24568p-7, -0x1.022e7d57cb54ep-6,
       -0x1.e7aa71de162p-11, -0x1.b355be6a80035p-8, -0x1.379a81df3f71dp-5,
       -0x1.47651faa470e9p-5, -0x1.755c3425f47d7p-6, 0x1.1231a0c1d429ep-8,
       -0x1.46c428f9bd74p-14, -0x1.52ce5511984f4p-9, -0x1.59df9b6dfac24p-5,
       -0x1.63bd19c6a7072p-6, -0x1.0f32d8518b7bcp-6, -0x1.45ef7b99bebc4p-5,
       -0x1.ed28b48f5bdbp-7},
      {0x0p+0, -0x1.0ccf777a13c14p-7, -0x1.fec0c81790cfp-7,
       -0x1.f40294bd2f68p-11, -0x1.a6e57d4766576p-8, -0x1.37443b43a4a62p-5,
       -0x1.46e15916e8e66p-5, -0x1.7577625a6f8dep-6, 0x1.0e947e3c68f08p-8,
       0x1.3ceeb6752a6p-16, -0x1.5a089a1c6ec2p-9, -0x1.591a10b23ba1cp-5,
       -0x1.642406b95f3dep-6, -0x1.103aa7924c20ap-6, -0x1.454d3d5592e62p-5,
       -0x1.edbde80bce364p-7}};
  ASSERT_EQ(report.epochs.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(*report.epochs[k].claimed_precision, claimed[k]) << k;
    EXPECT_EQ(report.epochs[k].corrections, corrections[k]) << k;
  }
}

TEST(LiveLoopback, DroppedCounterEqualsRecordedLosses) {
  // A host with no trace filter records every datagram, so its published
  // counters must equal the trace's own tallies — the dropped one most of
  // all, since injected loss is the only way it moves.
  SystemModel model = test::bounded_model(make_complete(6), 0.001, 0.05);
  const std::size_t n = model.processor_count();
  SyncAgentParams params;
  params.epochs = 2;
  params.grace = Duration{0.5};
  LiveResults results(n, params);

  struct Proxy final : VirtualScheduler {
    VirtualScheduler* target{nullptr};
    void schedule_delivery(RealTime at, WireMessage msg) override {
      target->schedule_delivery(at, std::move(msg));
    }
  } proxy;
  VirtualTimeBase time;
  LoopbackOptions loopback;
  loopback.seed = 23;
  loopback.drop_probability = 0.2;
  LoopbackTransport transport(model, time, &proxy, loopback);

  std::ostringstream sink;
  TraceWriter writer(sink);
  Metrics metrics;
  HostOptions options;
  options.start_offsets.assign(n, Duration{0.0});
  options.seed = 23;
  options.metrics = &metrics;
  options.trace = &writer;
  AgentHost host(model, transport, time, options);
  proxy.target = &host;
  transport.start();
  const RunStats stats = host.run(make_sync_agents(&model, params, &results));
  transport.stop();

  std::uint64_t sends = 0, deliveries = 0, losses = 0;
  for (const TraceEvent& ev : writer.trace().events) {
    sends += ev.kind == TraceEvent::Kind::kSend;
    deliveries += ev.kind == TraceEvent::Kind::kDeliver;
    losses += ev.kind == TraceEvent::Kind::kLoss;
  }
  EXPECT_GT(losses, 0u);
  EXPECT_EQ(metrics.counter("runtime.dropped"), losses);
  EXPECT_EQ(metrics.counter("runtime.dropped"), transport.dropped());
  EXPECT_EQ(metrics.counter("runtime.sent"), sends);
  EXPECT_EQ(metrics.counter("runtime.delivered"), deliveries);
  EXPECT_EQ(metrics.counter("runtime.dispatched"), stats.dispatched);
}

TEST(LiveLoopback, NoGraceAndTotalLossMeansNoConvergenceNotAHang) {
  // Historic hazard: with reports lost and no watchdog the leader waits
  // forever.  In virtual time the heap simply drains — run_live must
  // return (not converged) rather than spin.
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 3;
  // Highest injectable loss rate ([0, 1) enforced): with this seed nothing
  // the protocol needs survives the wire.
  config.drop_probability = 0.999;
  const LiveReport report = run_live(model, config);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.epochs[0].claimed_precision.has_value());
}

TEST(LiveThreaded, EightAgentsConvergeOnWallClock) {
  SystemModel model = test::bounded_model(make_complete(8), 0.0, 1.0);
  LiveConfig config;
  config.seed = 11;
  config.transport = LiveTransportKind::kLoopbackThreaded;
  config.delay_scale = 0.005;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "loopback-threaded");
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  // The offline check runs over the views of the *actual* wall-clock run,
  // so the bit-for-bit contract holds on threaded transports too.
  EXPECT_TRUE(report.all_match);
  expect_realized_within_bound(report);
  // Mailbox dwell was measured for every cross-thread delivery.
  EXPECT_GT(
      report.metrics.series_snapshot("runtime.ingest_latency_seconds").count,
      0u);
}

TEST(LiveThreaded, WallModePublishesTheHostCounters) {
  // Wall mode counts in the same host members as virtual mode and
  // publishes the same four counters when run() returns.
  SystemModel model = test::bounded_model(make_complete(6), 0.0, 1.0);
  LiveConfig config;
  config.seed = 19;
  config.transport = LiveTransportKind::kLoopbackThreaded;
  config.delay_scale = 0.005;
  config.drop_probability = 0.05;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.agent.grace = Duration{0.2};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  const Metrics& m = report.metrics;
  EXPECT_EQ(m.counter("runtime.dispatched"), report.dispatched);
  EXPECT_GT(m.counter("runtime.sent"), 0u);
  EXPECT_GT(m.counter("runtime.delivered"), 0u);
  EXPECT_LE(m.counter("runtime.delivered"), m.counter("runtime.sent"));
  EXPECT_GT(m.counter("runtime.dropped"), 0u);
}

TEST(LiveUdp, EightAgentsOverRealSocketsStayWithinTheBound) {
  // Real localhost datagrams: delays are genuinely positive and tiny, so
  // an admissible model needs lower bound 0.  Thm 4.6 then applies to the
  // real run: realized precision within the claimed bound.
  SystemModel model = test::bounded_model(make_complete(8), 0.0, 1.0);
  LiveConfig config;
  config.seed = 29;
  config.transport = LiveTransportKind::kUdp;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "udp");
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  expect_realized_within_bound(report);
}

TEST(LiveUdp, ReportFitsOneDatagramAtAnyProbeCount) {
  // 320 rounds at 1 ms bank 4,480 observations per agent before T_1.  A
  // report is per-direction extremes, 31 doubles on complete-8 however
  // many probes ran, so every report fits one datagram and the run
  // converges.
  SystemModel model = test::bounded_model(make_complete(8), 0.0, 1.0);
  LiveConfig config;
  config.transport = LiveTransportKind::kUdp;
  config.agent.rounds = 320;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.001};
  config.agent.report_at = Duration{0.6};
  config.agent.period = Duration{1.0};
  config.agent.epochs = 1;
  config.deadline = Duration{10.0};

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  expect_realized_within_bound(report);
}

TEST(LiveResync, DriftBudgetClampsThePeriodAndKeepsCoverage) {
  // rho 100 ppm, slack 0.1 ms -> max re-sync interval 0.5 s.  The default
  // 1 s x 1-epoch schedule violates it, so run_live must clamp the period
  // and stretch the epoch count to preserve the covered span.
  SystemModel model = test::bounded_model(make_complete(6), 0.001, 0.05);
  LiveConfig config;
  config.seed = 31;
  config.drift.rho = 100e-6;
  config.drift.slack = 0.0001;

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.resync_clamped);
  EXPECT_DOUBLE_EQ(report.resync_period.sec, 0.5);
  EXPECT_GE(report.resync_epochs, 2u);
  EXPECT_EQ(report.epochs.size(), report.resync_epochs);
  // Every epoch publishes the drift-adjusted bound = claimed + slack.
  for (const LiveEpochReport& ep : report.epochs) {
    ASSERT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    ASSERT_TRUE(ep.drift_bound.has_value()) << "epoch " << ep.epoch;
    EXPECT_DOUBLE_EQ(*ep.drift_bound,
                     *ep.claimed_precision + config.drift.slack);
  }
  expect_realized_within_bound(report);
  EXPECT_EQ(report.metrics.counter("runtime.drift.clamped"), 1u);
  EXPECT_GT(report.metrics.series_snapshot("runtime.drift.epoch_bound").count,
            0u);
}

TEST(LiveResync, CompliantScheduleRunsUnmodified) {
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 37;
  config.agent.epochs = 2;
  config.drift.rho = 100e-6;
  config.drift.slack = 0.01;  // max interval 50 s >> the 5 s default period

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.resync_clamped);
  EXPECT_EQ(report.resync_epochs, 2u);
  EXPECT_EQ(report.metrics.counter("runtime.drift.clamped"), 0u);
  for (const LiveEpochReport& ep : report.epochs)
    EXPECT_TRUE(ep.drift_bound.has_value());
}

TEST(LiveResync, InactiveBudgetLeavesReportsDriftFree) {
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 41;
  config.agent.epochs = 2;
  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.resync_clamped);
  for (const LiveEpochReport& ep : report.epochs)
    EXPECT_FALSE(ep.drift_bound.has_value());
}

TEST(LiveConfigValidation, RejectsBadSchedules) {
  SystemModel model = test::bounded_model(make_complete(3), 0.001, 0.05);
  LiveConfig config;
  config.agent.report_at = Duration{0.1};  // before the probe phase ends
  EXPECT_THROW(run_live(model, config), Error);

  LiveConfig leader;
  leader.agent.leader = 7;  // out of range for n = 3
  EXPECT_THROW(run_live(model, leader), Error);
}

}  // namespace
}  // namespace cs
