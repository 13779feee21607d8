// Deterministic replay: a recorded trace alone must reproduce the full
// epoch pipeline bit-for-bit — views, corrections, precision, counters —
// with no simulator and no RNG in the loop.

#include "trace/replay.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "core/synchronizer.hpp"
#include "proto/beacon.hpp"
#include "sim/fault_plan.hpp"
#include "support/builders.hpp"
#include "trace/writer.hpp"

namespace cs {
namespace {

struct Recorded {
  Trace trace;
  RecordResult result;
};

/// Record a run in memory and parse the serialized trace back.
Recorded record(const SystemModel& model, const AutomatonFactory& factory,
                const SimOptions& sim_options, const ReplayPlan& plan) {
  std::stringstream ss;
  TraceWriter writer(ss);
  Recorded r;
  r.result = record_run(model, factory, sim_options, plan, writer);
  r.trace = load_trace(ss);
  return r;
}

Recorded record_clean() {
  SystemModel model = test::bounded_model(make_ring(5), 0.002, 0.010);
  SimOptions opts;
  opts.seed = 42;
  opts.start_offsets = {Duration{0.02}, Duration{0.08}, Duration{0.04},
                        Duration{0.05}, Duration{0.19}};
  PingPongParams probe;
  return record(model, make_ping_pong(probe), opts, ReplayPlan{});
}

Recorded record_faulty(FaultPlan& faults) {
  SystemModel model = test::bounded_model(make_ring(6), 0.002, 0.010);
  faults.seed = 99;
  faults.default_link.drop_probability = 0.2;
  faults.crash(5, RealTime{1.5});

  SimOptions opts;
  opts.seed = 7;
  opts.start_offsets.assign(6, Duration{0.0});
  opts.faults = &faults;

  BeaconParams probe;
  probe.warmup = Duration{0.1};
  probe.period = Duration{0.05};
  probe.count = 40;

  ReplayPlan plan;
  plan.boundaries = {ClockTime{0.8}, ClockTime{1.4}, ClockTime{2.0}};
  plan.options.window = Duration{0.6};
  plan.options.staleness.carry_forward = true;
  plan.options.staleness.widen_per_epoch = 0.005;
  plan.options.staleness.max_carry_epochs = 2;
  return record(model, make_beacon(probe), opts, plan);
}

TEST(Replay, ViewsRebuiltBitIdentical) {
  const Recorded r = record_clean();
  const std::vector<View> rebuilt = views_from_trace(r.trace);
  const std::vector<View> original = r.result.sim.execution.views();
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t p = 0; p < original.size(); ++p)
    EXPECT_EQ(rebuilt[p], original[p]) << "view " << p;
}

TEST(Replay, CleanRunMatchesRecording) {
  const Recorded r = record_clean();
  const ReplayResult replayed = replay(r.trace);
  EXPECT_TRUE(replayed.matches_recording())
      << (replayed.divergences.empty() ? "" : replayed.divergences.front());

  // Bit-identical against the in-process run, not just self-consistent.
  ASSERT_EQ(replayed.epochs.size(), r.result.epochs.size());
  for (std::size_t k = 0; k < replayed.epochs.size(); ++k) {
    const SyncOutcome& a = replayed.epochs[k].sync;
    const SyncOutcome& b = r.result.epochs[k].sync;
    EXPECT_EQ(a.optimal_precision.value(), b.optimal_precision.value());
    ASSERT_EQ(a.corrections.size(), b.corrections.size());
    for (std::size_t p = 0; p < a.corrections.size(); ++p)
      EXPECT_EQ(a.corrections[p], b.corrections[p]) << "epoch " << k
                                                    << " pid " << p;
  }
}

TEST(Replay, FaultyWindowedRunMatchesRecording) {
  FaultPlan faults;
  const Recorded r = record_faulty(faults);
  ASSERT_GT(r.result.sim.fault_dropped_messages, 0u);
  ASSERT_GT(r.result.sim.crash_dropped_deliveries, 0u);

  const ReplayResult replayed = replay(r.trace);
  EXPECT_TRUE(replayed.matches_recording())
      << (replayed.divergences.empty() ? "" : replayed.divergences.front());
}

TEST(Replay, FaultCountersReproducedFromEventsAlone) {
  FaultPlan faults;
  const Recorded r = record_faulty(faults);
  const ReplayResult replayed = replay(r.trace);

  // The replay had no FaultInjector: its fault.* counters are tallied
  // purely from the event records, and must agree with the live run's.
  EXPECT_EQ(replayed.metrics.counter("fault.dropped"),
            r.result.metrics.counter("fault.dropped"));
  EXPECT_EQ(replayed.metrics.counter("fault.link_down_drops"),
            r.result.metrics.counter("fault.link_down_drops"));
  EXPECT_EQ(replayed.metrics.counter("fault.crash_dropped_deliveries"),
            r.result.metrics.counter("fault.crash_dropped_deliveries"));
  EXPECT_EQ(replayed.metrics.counter("fault.suppressed_timers"),
            r.result.metrics.counter("fault.suppressed_timers"));
  EXPECT_EQ(replayed.metrics.counter("pipeline.epochs"),
            r.result.metrics.counter("pipeline.epochs"));
}

TEST(Replay, PerturbedDeliveryDiverges) {
  const Recorded r = record_clean();

  // Shift the run's first delivery 1ms earlier: that sample becomes the
  // binding minimum for its direction, so the replayed outcome must
  // diverge from the recording — and the report names epoch and field.
  Trace perturbed = r.trace;
  bool done = false;
  for (TraceEvent& ev : perturbed.events) {
    if (done || ev.kind != TraceEvent::Kind::kDeliver) continue;
    ev.clock.sec -= 0.001;
    done = true;
  }
  ASSERT_TRUE(done);

  const ReplayResult replayed = replay(perturbed);
  EXPECT_FALSE(replayed.matches_recording());
  ASSERT_FALSE(replayed.divergences.empty());
  EXPECT_NE(replayed.divergences.front().find("epoch 0"), std::string::npos)
      << replayed.divergences.front();
}

TEST(Replay, RerecordedTraceDiffsClean) {
  const Recorded r = record_clean();
  const ReplayResult replayed = replay(r.trace);
  const Trace again = rerecorded(r.trace, replayed);
  EXPECT_TRUE(diff_traces(r.trace, again).empty());
}

TEST(Replay, DiffReportsFirstDivergentEvent) {
  const Recorded r = record_clean();
  Trace perturbed = r.trace;
  ASSERT_GT(perturbed.events.size(), 10u);
  perturbed.events[10].clock.sec += 0.001;

  const std::vector<std::string> diffs = diff_traces(r.trace, perturbed);
  ASSERT_FALSE(diffs.empty());
  EXPECT_NE(diffs.front().find("event 10"), std::string::npos)
      << diffs.front();
}

TEST(Replay, DiffCapRespected) {
  const Recorded r = record_clean();
  Trace perturbed = r.trace;
  for (TraceEvent& ev : perturbed.events)
    if (ev.kind == TraceEvent::Kind::kDeliver) ev.clock.sec += 0.001;

  const std::vector<std::string> diffs = diff_traces(r.trace, perturbed, 4);
  // 4 reports + 1 "suppressed" summary line.
  EXPECT_EQ(diffs.size(), 5u);
  EXPECT_NE(diffs.back().find("suppressed"), std::string::npos);
}

TEST(Replay, EventForUnknownProcessorRejected) {
  Recorded r = record_clean();
  r.trace.events.front().a = 99;
  EXPECT_THROW(replay(r.trace), Error);
}

}  // namespace
}  // namespace cs
