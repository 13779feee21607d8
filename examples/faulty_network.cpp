// Faulty network: synchronize through message loss, a link outage, and a
// crashed processor.
//
// Demonstrates the degraded-mode toolchain end to end:
//   1. layer a FaultPlan over the simulator (drops + an outage + a crash),
//   2. drive sliding-window epochs over the faulty views,
//   3. read the per-epoch coverage census and the per-component precision
//      report when the surviving traffic leaves the instance partitioned,
//   4. turn on staleness carry-forward and watch the outage get bridged.
//
// Build & run:  ./build/examples/faulty_network

#include <cmath>
#include <cstdio>

#include "core/epochs.hpp"
#include "proto/beacon.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cs;

  // 1. A six-node ring, [2ms, 10ms] links — and a hostile environment:
  //    every link drops 15% of its messages, the 2-3 link goes down for a
  //    second, and processor 5 crashes at t=2s and never comes back.
  SystemModel model(make_ring(6));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, 0.002, 0.010));

  FaultPlan plan;
  plan.default_link.drop_probability = 0.15;
  plan.link(2, 3).down.push_back(TimeWindow{RealTime{1.0}, RealTime{2.0}});
  plan.crash(5, RealTime{2.0});

  Metrics metrics;
  SimOptions sim_opts;
  sim_opts.start_offsets.assign(6, Duration{0.0});
  sim_opts.seed = 7;
  sim_opts.faults = &plan;
  sim_opts.metrics = &metrics;

  BeaconParams probe;
  probe.warmup = Duration{0.1};
  probe.period = Duration{0.05};
  probe.count = 70;  // beacons through ~3.55s
  const SimResult sim = simulate(model, make_beacon(probe), sim_opts);
  std::printf("delivered %zu, dropped %zu, lost to the crash %zu\n",
              sim.delivered_messages, sim.fault_dropped_messages,
              sim.crash_dropped_deliveries);

  // 2. Sliding-window epochs: each boundary sees only the last 600ms, so
  //    the outage and the crash genuinely starve links.
  const std::vector<View> views = sim.execution.views();
  const std::vector<ClockTime> boundaries{
      ClockTime{0.8}, ClockTime{1.4}, ClockTime{2.0}, ClockTime{2.6},
      ClockTime{3.2}};
  EpochOptions opts;
  opts.window = Duration{0.6};

  auto describe = [&](const std::vector<EpochOutcome>& epochs) {
    for (const EpochOutcome& ep : epochs) {
      std::printf("  t=%.1f  coverage %4.0f%%  carried %zu  ",
                  ep.boundary.sec, 100.0 * ep.coverage.fraction(),
                  ep.carried_edges);
      if (ep.sync.bounded()) {
        std::printf("precision %.6f s\n",
                    ep.sync.optimal_precision.finite());
        continue;
      }
      // 3. Partitioned epoch: report per-component guarantees instead.
      std::printf("partitioned ->");
      const auto members = ep.sync.components.members();
      for (std::size_t c = 0; c < members.size(); ++c) {
        std::printf(" {");
        for (std::size_t i = 0; i < members[c].size(); ++i)
          std::printf("%s%u", i ? "," : "", members[c][i]);
        std::printf("}@%.4f", ep.sync.component_precision[c]);
      }
      std::printf("\n");
    }
  };

  std::printf("\nwithout carry-forward:\n");
  describe(epochal_synchronize_incremental(model, views, boundaries, opts));

  // 4. Carry-forward: reuse the last observed m̃ls bound for silent links,
  //    widened 5ms per epoch of staleness, for at most 2 epochs.  The
  //    one-second outage is bridged; the dead processor eventually ages
  //    out and the partition is admitted.
  opts.staleness.carry_forward = true;
  opts.staleness.widen_per_epoch = 0.005;
  opts.staleness.max_carry_epochs = 2;
  std::printf("\nwith carry-forward (widen 5ms/epoch, max age 2):\n");
  describe(epochal_synchronize_incremental(model, views, boundaries, opts));

  std::printf("\nfault counters: dropped=%llu link_down=%llu crash=%llu\n",
              static_cast<unsigned long long>(metrics.counter("fault.dropped")),
              static_cast<unsigned long long>(
                  metrics.counter("fault.link_down_drops")),
              static_cast<unsigned long long>(
                  metrics.counter("fault.crash_dropped_deliveries")));
  return 0;
}
