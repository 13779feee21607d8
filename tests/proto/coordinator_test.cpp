// The §7 protocol in the simulator: SyncAgent (runtime/agent.hpp) under
// simulate().  Neighbors probe, every processor floods its estimated-delay
// report to the leader, the leader runs GLOBAL ESTIMATES + SHIFTS and
// floods the corrections back.  The suites keep the names of the
// single-epoch coordinator they replaced.
#include "runtime/agent.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/epochs.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "sim/fault_plan.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

/// One epoch: probes from `warmup`, reports at clock time 2.0.
SyncAgentParams one_epoch(double warmup) {
  SyncAgentParams params;
  params.warmup = Duration{warmup};
  params.report_at = Duration{2.0};
  return params;
}

struct AgentRun {
  LiveResults results;
  SimResult sim;
};

AgentRun run_agents(const SystemModel& model, const SyncAgentParams& params,
                    const SimOptions& opts) {
  AgentRun run{LiveResults(model.processor_count(), params), {}};
  run.sim =
      simulate(model, make_sync_agents(&model, params, &run.results), opts);
  return run;
}

/// Random start offsets in [0, skew], probing from just past the latest.
AgentRun run_skewed(const SystemModel& model, std::uint64_t seed,
                    double skew,
                    SyncAgentParams params = one_epoch(0.0)) {
  Rng rng(seed);
  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), skew, rng);
  opts.seed = seed;
  params.warmup = Duration{skew + 0.1};
  return run_agents(model, params, opts);
}

SimOptions aligned(std::size_t n, std::uint64_t seed) {
  SimOptions opts;
  opts.start_offsets.assign(n, Duration{0.0});
  opts.seed = seed;
  return opts;
}

TEST(Coordinator, EveryProcessorLearnsItsCorrection) {
  for (const char* topo : {"line", "ring", "star", "complete"}) {
    Rng rng(1);
    SystemModel model =
        test::bounded_model(make_named(topo, 5, rng), 0.01, 0.05);
    const AgentRun run = run_skewed(model, 3, 0.2);
    EXPECT_TRUE(run.results.all_complete()) << topo;
  }
}

TEST(Coordinator, LeaderIsGaugeZero) {
  SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.05);
  const AgentRun run = run_skewed(model, 4, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.results.epochs()[0].corrections[0], 0.0);
}

TEST(Coordinator, RealizedPrecisionWithinClaim) {
  // The leader's claimed precision is ρ̄ w.r.t. probe-phase information;
  // the actual execution is one member of that equivalence class.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemModel model = test::bounded_model(make_ring(6), 0.01, 0.05);
    const AgentRun run = run_skewed(model, seed, 0.3);
    ASSERT_TRUE(run.results.all_complete());
    const LiveEpoch& epoch = run.results.epochs()[0];
    EXPECT_LE(realized_precision(run.sim.execution.start_times(),
                                 epoch.corrections),
              *epoch.claimed_precision + 1e-9);
  }
}

TEST(Coordinator, OfflinePipelineOnFullViewsIsAtLeastAsTight) {
  // The report/correction traffic extends the views, so re-running the
  // offline pipeline afterwards can only improve the bound (§7's remark).
  SystemModel model = test::bounded_model(make_line(5), 0.01, 0.05);
  const AgentRun run = run_skewed(model, 9, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  const auto views = run.sim.execution.views();
  const SyncOutcome offline = synchronize(model, views);
  EXPECT_LE(offline.optimal_precision.finite(),
            *run.results.epochs()[0].claimed_precision + 1e-9);
}

TEST(Coordinator, NonDefaultLeader) {
  SystemModel model = test::bounded_model(make_line(4), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.0);
  params.leader = 3;
  const AgentRun run = run_skewed(model, 11, 0.2, params);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.results.epochs()[0].corrections[3], 0.0);
}

TEST(Coordinator, SingleProcessorDegenerate) {
  SystemModel model{make_line(1)};
  const AgentRun run = run_skewed(model, 12, 0.0);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.results.epochs()[0].corrections[0], 0.0);
  EXPECT_DOUBLE_EQ(*run.results.epochs()[0].claimed_precision, 0.0);
}

TEST(Coordinator, ParameterValidation) {
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.5);
  params.report_at = Duration{0.1};  // before probes finish
  LiveResults results(2, params);
  EXPECT_THROW(make_sync_agents(&model, params, &results), Error);

  SyncAgentParams bad_leader = one_epoch(0.5);
  bad_leader.leader = 9;
  EXPECT_THROW(make_sync_agents(&model, bad_leader, &results), Error);
  EXPECT_THROW(make_sync_agents(nullptr, one_epoch(0.5), &results), Error);
}

TEST(Coordinator, MessageLossCanStallTheProtocol) {
  // Known limitation, kept visible: each report and the correction
  // broadcast are flooded once, so without a grace deadline a loss on a cut
  // link stalls completion.  On a line, heavy loss reliably does so; the
  // protocol must fail *quietly* (incomplete results), never with wrong
  // corrections.
  SystemModel model = test::bounded_model(make_line(4), 0.01, 0.05);
  const SyncAgentParams params = one_epoch(0.3);
  LiveResults results(4, params);
  std::vector<std::unique_ptr<DelaySampler>> samplers;
  for (std::size_t i = 0; i < 3; ++i)
    samplers.push_back(make_lossy_sampler(
        make_uniform_sampler(0.01, 0.05, 0.01, 0.05), 0.7));
  const SimResult sim =
      simulate(model, make_sync_agents(&model, params, &results),
               std::move(samplers), aligned(4, 5));
  // Whether or not every processor learned its correction, a computed
  // epoch's corrections must be sound for the claimed bound.
  const LiveEpoch& epoch = results.epochs()[0];
  if (epoch.computed()) {
    EXPECT_LE(realized_precision(sim.execution.start_times(),
                                 epoch.corrections),
              *epoch.claimed_precision + 1e-9);
  }
}

// --- grace: the watchdog path ---------------------------------------------

TEST(CoordinatorWatchdog, FaultFreeRunWithGraceCompletesNormally) {
  // With no faults the grace timer fires after the compute already
  // happened: the watchdog must be a no-op, not a second compute.
  SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.0);
  params.grace = Duration{1.0};
  const AgentRun run = run_skewed(model, 7, 0.2, params);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_FALSE(run.results.epochs()[0].degraded);
  EXPECT_EQ(run.results.epochs()[0].reports_absorbed, 5u);
}

TEST(CoordinatorWatchdog, ComputesDegradedFromPartialReportsUnderLoss) {
  // The hazard MessageLossCanStallTheProtocol documents: lost reports
  // leave the leader waiting forever.  With a grace deadline it computes
  // from whatever arrived and flags the outcome degraded.
  SystemModel model = test::bounded_model(make_line(4), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.3);
  params.grace = Duration{1.0};

  // Deterministic omission: the 2-3 link is down for the whole run, so
  // processor 3's report can never reach the leader.
  FaultPlan faults;
  faults.link(2, 3).down.push_back(TimeWindow{});
  SimOptions opts = aligned(4, 5);
  opts.faults = &faults;

  const AgentRun run = run_agents(model, params, opts);
  const LiveEpoch& epoch = run.results.epochs()[0];
  // No silent hang: the simulation drained (this test returning at all is
  // the point), and the leader did not stay pending.
  ASSERT_TRUE(epoch.computed());
  EXPECT_TRUE(epoch.degraded);
  EXPECT_LT(epoch.reports_absorbed, 4u);
  EXPECT_GE(epoch.reports_absorbed, 1u);
  // The leader always learns its own correction from the partial compute.
  EXPECT_EQ(epoch.corrections.size(), 4u);
  EXPECT_GE(epoch.acks, 1u);
}

TEST(CoordinatorWatchdog, SeveredLeaderStaysPendingButTerminates) {
  // Cut both of the leader's links on a ring of 4: no report other than
  // its own, but also no probe traffic *into* the leader... it still has
  // its own report (absorbed locally), so the watchdog computes degraded
  // per-component corrections rather than hanging.
  SystemModel model = test::bounded_model(make_ring(4), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.3);
  params.grace = Duration{0.5};

  FaultPlan faults;
  faults.link(0, 1).down.push_back(TimeWindow{});
  faults.link(0, 3).down.push_back(TimeWindow{});
  SimOptions opts = aligned(4, 6);
  opts.faults = &faults;

  const AgentRun run = run_agents(model, params, opts);
  const LiveEpoch& epoch = run.results.epochs()[0];
  EXPECT_TRUE(epoch.degraded);
  EXPECT_EQ(epoch.reports_absorbed, 1u);  // only the leader's own
  // An isolated leader has no delay estimates at all: the per-component
  // precision for its singleton component is 0 and its correction is the
  // gauge zero.
  ASSERT_EQ(epoch.corrections.size(), 4u);
  EXPECT_DOUBLE_EQ(epoch.corrections[0], 0.0);
}

TEST(CoordinatorWatchdog, GraceValidation) {
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  SyncAgentParams params = one_epoch(0.5);
  params.grace = Duration{-0.5};
  LiveResults results(2, params);
  EXPECT_THROW(make_sync_agents(&model, params, &results), Error);
}

TEST(Coordinator, BiasModelEndToEnd) {
  SystemModel model = test::bias_model(make_ring(5), 0.02);
  const AgentRun run = run_skewed(model, 13, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_TRUE(std::isfinite(*run.results.epochs()[0].claimed_precision));
}

TEST(Coordinator, MultiEpochRunsAreSoundAndOfflineIsNeverLooser) {
  // Every epoch's claim holds for the execution that produced it, and the
  // offline epoch driver over the simulator's full views — which, unlike
  // run_live's host views, also carry the forwarded reports and
  // corrections — is never looser than the leader's claim.
  for (const char* topo : {"line", "ring", "star", "complete", "grid"}) {
    for (const std::size_t epochs : {1u, 3u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        SystemModel model =
            test::bounded_model(make_named(topo, 6, rng), 0.01, 0.05);
        SyncAgentParams params = one_epoch(0.0);
        params.epochs = epochs;
        params.leader = static_cast<ProcessorId>(seed % 6);
        const AgentRun run = run_skewed(model, seed, 0.3, params);
        const std::string what = std::string(topo) + " epochs " +
                                 std::to_string(epochs) + " seed " +
                                 std::to_string(seed);
        ASSERT_TRUE(run.results.all_complete()) << what;

        EpochOptions offline_options;
        offline_options.sync.root = params.leader;
        offline_options.sync.match = MatchPolicy::kDropOrphans;
        const auto views = run.sim.execution.views();
        const std::vector<EpochOutcome> offline =
            epochal_synchronize_incremental(model, views,
                                            sync_agent_boundaries(params),
                                            offline_options);
        ASSERT_EQ(offline.size(), epochs) << what;
        for (std::size_t k = 0; k < epochs; ++k) {
          const LiveEpoch& epoch = run.results.epochs()[k];
          const double claimed = *epoch.claimed_precision;
          EXPECT_LE(realized_precision(run.sim.execution.start_times(),
                                       epoch.corrections),
                    claimed + 1e-9)
              << what << " epoch " << k + 1;
          EXPECT_LE(offline[k].sync.optimal_precision.value(), claimed)
              << what << " epoch " << k + 1;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cs
