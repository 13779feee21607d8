// Quickstart: synchronize a five-node ring with known delay bounds.
//
// Walks the whole public API end to end:
//   1. describe the system (topology + per-link delay assumptions),
//   2. run a probing protocol in the simulator to obtain views,
//   3. compute optimal corrections with cs::synchronize,
//   4. evaluate against ground truth (which only the simulator knows).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cs;

  // 1. A ring of five processors; every link promises delays in
  //    [2ms, 10ms].
  SystemModel model(make_ring(5));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, 0.002, 0.010));

  // 2. Processors start up to 500ms apart (this is the skew to fix).
  Rng rng(/*seed=*/42);
  SimOptions sim_opts;
  sim_opts.start_offsets = random_start_offsets(5, /*max_skew=*/0.5, rng);
  sim_opts.seed = 42;

  PingPongParams probe;
  probe.warmup = Duration{0.6};
  probe.rounds = 4;
  const SimResult sim = simulate(model, make_ping_pong(probe), sim_opts);

  // 3. The correction function sees only the views (Claim 3.1).
  const std::vector<View> views = sim.execution.views();
  const SyncOutcome sync = synchronize(model, views);

  // 4. Ground truth: how far apart were the clocks, and how close are the
  //    corrected clocks?
  const std::vector<RealTime> starts = sim.execution.start_times();
  const std::vector<double> zero(5, 0.0);

  std::printf("processor | start skew (s) | correction (s)\n");
  for (std::size_t p = 0; p < 5; ++p)
    std::printf("    %zu     |    %8.6f    |   %+9.6f\n", p, starts[p].sec,
                sync.corrections[p]);

  std::printf("\nuncorrected spread : %.6f s\n",
              realized_precision(starts, zero));
  std::printf("corrected spread   : %.6f s\n",
              realized_precision(starts, sync.corrections));
  std::printf("optimal guarantee  : %.6f s  (= A^max for this instance)\n",
              sync.optimal_precision.value());

  // Which processors limit the precision?  The critical cycle names them:
  // tightening the delay knowledge on its links is the only way to improve.
  const std::vector<NodeId>& cycle = sync.critical_cycle;
  std::printf("critical cycle     : ");
  for (std::size_t i = 0; i < cycle.size(); ++i)
    std::printf("p%u%s", cycle[i], i + 1 < cycle.size() ? " -> " : "");
  std::printf(" -> p%u\n", cycle.empty() ? 0 : cycle.front());
  return 0;
}
