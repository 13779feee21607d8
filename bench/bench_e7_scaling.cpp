// E7 — Scaling microbenchmarks (google-benchmark) plus an end-to-end
// campaign sweep on the cs_lab executor.
//
// Claim exercised: the pipeline is the paper's advertised complexity —
// Karp's cycle mean O(nm) = O(n^3) on complete shift graphs, Bellman-Ford
// corrections O(n^3), Johnson APSP O(nm + n^2 log n) on sparse network
// graphs — and the end-to-end correction computation for a 64-processor
// system stays comfortably interactive.
// Expected shape: Karp ~8x per doubling of n (cubic); Johnson much flatter
// than Floyd-Warshall on rings; synchronize() dominated by Karp at scale.
//
// BM_PairMessages* time message pairing on the trace-replay workload's
// instance: the flat send index against the hash-map reference pairing
// (docs/PERF.md §7).
//
// The former hand-rolled BM_EndToEndSynchronize / BM_SimulatorPingPong
// loops are replaced by a lab campaign (simulate + synchronize + validate
// per task, fanned out over the work-stealing pool), reported per topology
// scale in BENCH_lab_scaling.json (standard bench-JSON shape).

#include <benchmark/benchmark.h>

#include <map>

#include "lab/campaign.hpp"
#include "lab/stats.hpp"
#include "oracles/cycle_mean.hpp"
#include "oracles/floyd_warshall.hpp"
#include "oracles/pairing.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;

/// Random complete m̃s-like matrix: potentials + non-negative noise, so
/// no negative 2-cycles and realistic structure.
DistanceMatrix random_ms(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> s(n);
  for (auto& x : s) x = rng.uniform(0.0, 0.3);
  DistanceMatrix m(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (p != q) m.at(p, q) = s[p] - s[q] + rng.uniform(0.001, 0.05);
  return m;
}

Digraph matrix_graph(const DistanceMatrix& m) {
  Digraph g(m.size());
  for (std::size_t p = 0; p < m.size(); ++p)
    for (std::size_t q = 0; q < m.size(); ++q)
      if (p != q) g.add_edge(static_cast<NodeId>(p),
                             static_cast<NodeId>(q), m.at(p, q));
  return g;
}

void BM_KarpMaxCycleMean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Digraph g = matrix_graph(random_ms(n, 42));
  for (auto _ : state)
    benchmark::DoNotOptimize(max_cycle_mean_karp(g));
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_KarpMaxCycleMean)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMicrosecond)->Complexity(benchmark::oNCubed);

void BM_ShiftsCorrections(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DistanceMatrix ms = random_ms(n, 43);
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_shifts(ms));
}
BENCHMARK(BM_ShiftsCorrections)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_JohnsonOnRing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.0, 1.0));
    g.add_edge(static_cast<NodeId>((v + 1) % n), v, rng.uniform(0.0, 1.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(johnson(g));
}
BENCHMARK(BM_JohnsonOnRing)->RangeMultiplier(2)->Range(16, 128)
    ->Unit(benchmark::kMicrosecond);

void BM_FloydWarshallOnRing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.0, 1.0));
    g.add_edge(static_cast<NodeId>((v + 1) % n), v, rng.uniform(0.0, 1.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(floyd_warshall(g));
}
BENCHMARK(BM_FloydWarshallOnRing)->RangeMultiplier(2)->Range(16, 128)
    ->Unit(benchmark::kMicrosecond);

/// Complete-n under [1 ms, 50 ms] probed by 8 ping-pong rounds, the
/// trace-replay workload's instance: n = 32 gives 31,744 send and receive
/// events, about its largest epoch cut.
const std::vector<View>& pingpong_views(std::size_t n) {
  static std::map<std::size_t, std::vector<View>> cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, probe(bounded_model(make_complete(n), 0.001, 0.050),
                                1, 0.5, 8).views).first;
  return it->second;
}

// Message pairing: the flat open-addressing send index against the
// hash-map reference it replaced (tests/oracles/pairing.hpp).
void BM_PairMessages(benchmark::State& state) {
  const auto& views = pingpong_views(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(pair_messages(views, MatchPolicy::kDropOrphans));
}
BENCHMARK(BM_PairMessages)->RangeMultiplier(2)->Range(8, 32)
    ->Unit(benchmark::kMicrosecond);

void BM_PairMessagesReference(benchmark::State& state) {
  const auto& views = pingpong_views(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        reference_pair_messages(views, MatchPolicy::kDropOrphans));
}
BENCHMARK(BM_PairMessagesReference)->RangeMultiplier(2)->Range(8, 32)
    ->Unit(benchmark::kMicrosecond);

/// End-to-end scaling through the campaign engine: one cell per topology
/// scale, each task a full simulate + synchronize + Thm 4.6 validation.
/// Replaces the old per-bench sweep glue (BM_EndToEndSynchronize and
/// BM_SimulatorPingPong) with the shared lab executor.
int run_lab_scaling(const std::string& json_path) {
  print_header("E7", "end-to-end scaling on the lab campaign engine");

  lab::CampaignSpec spec;
  spec.name = "e7_scaling";
  spec.seed = 1107;
  spec.seeds_per_cell = 6;
  spec.protocol.kind = "pingpong";
  spec.protocol.rounds = 2;
  spec.skew = 0.2;
  for (const char* text :
       {"ring 8", "ring 16", "ring 32", "ring 64", "er 32 0.3",
        "toroid 5x5"})
    spec.topologies.push_back(lab::parse_topo_spec(text));
  lab::MixSpec mix;
  mix.kind = "bounds";
  mix.lb = 0.002;
  mix.ub = 0.010;
  spec.mixes.push_back(mix);
  spec.faults.push_back(lab::FaultSpec{});  // fault-free

  Metrics metrics;
  lab::RunOptions options;
  options.metrics = &metrics;
  const lab::CampaignResult result = lab::run_campaign(spec, options);
  const lab::CampaignReport report = lab::aggregate(result);

  // Per-cell CPU seconds come from the per-task wall clocks (cells run
  // concurrently, so the campaign wall time alone cannot attribute cost).
  std::vector<double> cell_seconds(report.cells.size(), 0.0);
  for (std::size_t i = 0; i < result.results.size(); ++i)
    cell_seconds[result.tasks[i].cell_id(spec)] += result.results[i].seconds;

  Table table({"topology", "nodes", "tasks", "events", "cpu_s", "events_per_s",
               "claimed_mean", "thm46_max_gap"});
  BenchJson json("lab_scaling");
  for (const lab::CellStats& cell : report.cells) {
    const double seconds = cell_seconds[cell.cell];
    const double events_per_s =
        seconds > 0.0 ? static_cast<double>(cell.events) / seconds : 0.0;
    table.add_row({cell.topology, std::to_string(cell.nodes),
                   std::to_string(cell.tasks), std::to_string(cell.events),
                   Table::num(seconds, 4), Table::num(events_per_s, 0),
                   Table::num(cell.claimed.acc.mean(), 6),
                   Table::num(cell.thm46_max_gap, 12)});
    json.scenario(cell.topology)
        .field("nodes", cell.nodes)
        .field("tasks", cell.tasks)
        .field("events", cell.events)
        .field("cpu_seconds", seconds)
        .field("events_per_second", events_per_s)
        .field("claimed_precision_mean", cell.claimed.acc.mean())
        .field("thm46_max_gap", cell.thm46_max_gap)
        .field("failures", cell.failures)
        .field("soundness_violations", cell.soundness_violations);
  }
  table.print(std::cout);
  std::cout << "pool: " << metrics.counter("lab.pool.threads")
            << " workers, " << metrics.counter("lab.pool.steals")
            << " steals\n";

  if (!lab::report_ok(report)) {
    std::cerr << "E7: lab campaign failed validation\n";
    return 1;
  }
  return json.write(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Any non-benchmark argument left over names the JSON output path.
  return run_lab_scaling(argc > 1 ? argv[1] : "BENCH_lab_scaling.json");
}
