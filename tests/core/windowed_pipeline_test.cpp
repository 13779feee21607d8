// End-to-end pipeline over the windowed-bias extension: realistic traffic
// where delays drift across probe epochs but stay symmetric within them.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/global_estimates.hpp"
#include "core/local_estimates.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

/// Two-processor execution with explicit (send clock, delay) per message.
Execution timed_two_node(double s0, double s1,
                         const std::vector<TimedObs>& msgs_01,
                         const std::vector<TimedObs>& msgs_10) {
  struct Pending {
    ProcessorId pid;
    double clock;
    ViewEvent ev;
  };
  std::vector<Pending> events;
  MessageId next_id = 1;
  auto emit = [&](ProcessorId from, ProcessorId to, const TimedObs& m,
                  double s_from, double s_to) {
    const MessageId id = next_id++;
    ViewEvent send;
    send.kind = EventKind::kSend;
    send.when = ClockTime{m.send};
    send.msg = id;
    send.peer = to;
    events.push_back({from, m.send, send});
    const double recv_clock = s_from + m.send + m.delay - s_to;
    ViewEvent recv;
    recv.kind = EventKind::kReceive;
    recv.when = ClockTime{recv_clock};
    recv.msg = id;
    recv.peer = from;
    events.push_back({to, recv_clock, recv});
  };
  for (const TimedObs& m : msgs_01) emit(0, 1, m, s0, s1);
  for (const TimedObs& m : msgs_10) emit(1, 0, m, s1, s0);
  std::stable_sort(events.begin(), events.end(),
                   [](const Pending& x, const Pending& y) {
                     return x.clock < y.clock;
                   });
  std::vector<History> hs;
  hs.emplace_back(0, RealTime{s0});
  hs.emplace_back(1, RealTime{s1});
  for (const Pending& p : events) hs[p.pid].append(p.ev);
  return Execution(std::move(hs));
}

/// Probe epochs 100s apart; delays symmetric within an epoch (±0.01 around
/// a center) but the center drifts from 0.5 to 0.8 between epochs.
Execution drifting_epochs(double s0, double s1) {
  return timed_two_node(
      s0, s1,
      {{10.0, 0.50}, {10.2, 0.51}, {110.0, 0.80}, {110.2, 0.81}},
      {{10.1, 0.49}, {10.3, 0.50}, {110.1, 0.79}, {110.3, 0.80}});
}

TEST(WindowedPipeline, SynchronizesWhatPlainBiasRejects) {
  const Execution exec = drifting_epochs(0.4, 1.7);
  const auto views = exec.views();

  // Windowed model: admissible, bounded, sound.
  SystemModel windowed{make_line(2)};
  windowed.set_constraint(make_windowed_bias(0, 1, 0.05, 5.0));
  ASSERT_TRUE(windowed.admissible(exec));
  const SyncOutcome out = synchronize(windowed, views);
  ASSERT_TRUE(out.bounded());
  EXPECT_LE(realized_precision(exec.start_times(), out.corrections),
            out.optimal_precision.finite() + 1e-9);
  // Within-epoch symmetry (±0.01 around the center, bias 0.05) makes the
  // instance tightly synchronizable despite the 0.3s cross-epoch drift.
  EXPECT_LT(out.optimal_precision.finite(), 0.06);

  // Plain bias with the same b: the cross-epoch pairs violate it, and the
  // pipeline detects the contradiction.
  SystemModel plain{make_line(2)};
  plain.set_constraint(make_bias(0, 1, 0.05));
  EXPECT_FALSE(plain.admissible(exec));
  EXPECT_THROW(synchronize(plain, views), InvalidAssumption);
}

TEST(WindowedPipeline, EstimateConsistency) {
  // m̃s = ms + (S_p - S_q) must hold on the timed path too.
  const double s0 = 0.9, s1 = 0.2;
  const Execution exec = drifting_epochs(s0, s1);
  const auto views = exec.views();
  SystemModel model{make_line(2)};
  model.set_constraint(make_windowed_bias(0, 1, 0.05, 5.0));

  const Digraph mls_est = ingest_views(model, views).mls;
  const Digraph mls_act = local_shifts_actual(model, exec);
  const DistanceMatrix est = global_shift_estimates(mls_est);
  const DistanceMatrix act = global_shift_estimates(mls_act);
  EXPECT_NEAR(est.at(0, 1), act.at(0, 1) + s0 - s1, 1e-9);
  EXPECT_NEAR(est.at(1, 0), act.at(1, 0) + s1 - s0, 1e-9);
}

TEST(WindowedPipeline, WideWindowMatchesPlainBiasPrecision) {
  // With W larger than the whole trace span, windowed == plain bias.
  const Execution exec = timed_two_node(
      0.5, 0.1, {{10.0, 0.50}, {10.2, 0.52}}, {{10.1, 0.49}, {10.3, 0.51}});
  const auto views = exec.views();

  SystemModel windowed{make_line(2)};
  windowed.set_constraint(make_windowed_bias(0, 1, 0.05, 1e6));
  SystemModel plain{make_line(2)};
  plain.set_constraint(make_bias(0, 1, 0.05));

  const SyncOutcome w = synchronize(windowed, views);
  const SyncOutcome p = synchronize(plain, views);
  EXPECT_NEAR(w.optimal_precision.finite(), p.optimal_precision.finite(),
              1e-9);
  for (int i = 0; i < 2; ++i)
    EXPECT_NEAR(w.corrections[i], p.corrections[i], 1e-9);
}

TEST(WindowedPipeline, CompositeWithBoundsOnRealTraffic) {
  const Execution exec = drifting_epochs(0.0, 0.3);
  const auto views = exec.views();
  SystemModel model{make_line(2)};
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 1, 0.4, 1.0));
  parts.push_back(make_windowed_bias(0, 1, 0.05, 5.0));
  model.set_constraint(make_composite(0, 1, std::move(parts)));
  ASSERT_TRUE(model.admissible(exec));
  const SyncOutcome out = synchronize(model, views);
  ASSERT_TRUE(out.bounded());

  // The composite can only tighten relative to windowed alone.
  SystemModel windowed_only{make_line(2)};
  windowed_only.set_constraint(make_windowed_bias(0, 1, 0.05, 5.0));
  const SyncOutcome w = synchronize(windowed_only, views);
  EXPECT_LE(out.optimal_precision.finite(),
            w.optimal_precision.finite() + 1e-9);
}

TEST(WindowedPipeline, SimulatedDriftingCongestion) {
  // Full simulator path: delays follow a sinusoidal congestion process
  // (period 2s, amplitude 30ms, jitter 5ms).  Within W = 0.1s the center
  // moves at most ~9.4ms, so a windowed bias of 16ms is *true*; across the
  // 1.6s probing span centers swing ~60ms, so a global bias of 16ms is
  // *false*.  The windowed model must admit, synchronize, and stay sound.
  SystemModel windowed{make_ring(4)};
  for (auto [a, b] : windowed.topology().links)
    windowed.set_constraint(make_windowed_bias(a, b, 0.016, 0.1));

  Rng rng(33);
  SimOptions opts;
  opts.start_offsets = random_start_offsets(4, 0.2, rng);
  opts.seed = 33;
  std::vector<std::unique_ptr<DelaySampler>> samplers;
  for (std::size_t i = 0; i < windowed.topology().link_count(); ++i)
    samplers.push_back(make_drifting_congestion_sampler(
        /*base=*/0.05, /*amplitude=*/0.03, /*period=*/2.0,
        /*jitter=*/0.005));
  PingPongParams probe;
  probe.warmup = Duration{0.3};
  probe.spacing = Duration{0.1};
  probe.rounds = 16;
  const SimResult sim =
      simulate(windowed, make_ping_pong(probe), std::move(samplers), opts);
  // check_admissible defaulted to true: reaching here proves the windowed
  // assumption held on the generated traffic.

  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(windowed, views);
  ASSERT_TRUE(out.bounded());
  EXPECT_LE(realized_precision(sim.execution.start_times(),
                               out.corrections),
            out.optimal_precision.finite() + 1e-9);

  // The same traffic falsifies a *global* bias of the same magnitude.
  SystemModel plain{make_ring(4)};
  for (auto [a, b] : plain.topology().links)
    plain.set_constraint(make_bias(a, b, 0.016));
  EXPECT_FALSE(plain.admissible(sim.execution));
}

}  // namespace
}  // namespace cs
