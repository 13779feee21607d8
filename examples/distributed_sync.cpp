// In-band distributed synchronization with the §7 protocol.
//
// Unlike the other examples (which extract views and compute corrections
// "offline"), here the processors do everything themselves with messages:
// probe their neighbors, flood their delay statistics to a leader, and
// receive their corrections back — no outside observer involved.  The
// agents are the same SyncAgent automata the live runtime hosts, run here
// for one epoch under the simulator.
//
// Build & run:  ./build/examples/distributed_sync

#include <cstdio>

#include "core/precision.hpp"
#include "runtime/agent.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cs;

  SystemModel model(make_ring(8));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, 0.002, 0.008));

  Rng rng(11);
  SimOptions opts;
  opts.start_offsets = random_start_offsets(8, /*max_skew=*/0.4, rng);
  opts.seed = 11;

  SyncAgentParams params;
  params.warmup = Duration{0.5};
  params.rounds = 5;
  params.report_at = Duration{1.5};
  params.leader = 0;

  LiveResults results(model.processor_count(), params);
  const AutomatonFactory factory =
      make_sync_agents(&model, params, &results);
  const SimResult sim = simulate(model, factory, opts);

  if (!results.all_complete()) {
    std::printf("protocol did not complete!\n");
    return 1;
  }
  const LiveEpoch& epoch = results.epochs()[0];

  std::printf("ring of 8, §7 sync agents, leader = p0\n");
  std::printf("messages delivered: %zu (probes + reports + corrections)\n\n",
              sim.delivered_messages);

  const auto starts = sim.execution.start_times();
  for (std::size_t p = 0; p < 8; ++p)
    std::printf("  p%zu: start %+7.4f  learned correction %+8.5f\n", p,
                starts[p].sec, epoch.corrections[p]);

  std::printf("\nleader's claimed precision : %8.3f ms\n",
              *epoch.claimed_precision * 1e3);
  std::printf("realized precision         : %8.3f ms\n",
              realized_precision(starts, epoch.corrections) * 1e3);
  std::printf("uncorrected spread         : %8.3f ms\n",
              realized_precision(starts, std::vector<double>(8, 0.0)) * 1e3);
  return 0;
}
