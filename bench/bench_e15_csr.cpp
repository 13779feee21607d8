// E15 — CSR/arena hot path: per-epoch pipeline cost after the flat-graph
// rebuild, on the E11 grid extended to n = 256.
//
// Claim exercised: with the CSR closure kernels (johnson_into + dijkstra
// on flat arrays), the dense SHIFTS kernels, and all per-epoch scratch in
// reusable EpochArenas, the delta-aware pipeline beats the from-scratch
// recompute per epoch at n = 256 on single-edge deltas — from-scratch pays
// O(n^3) closure work per epoch while the incremental path touches O(n^2)
// plus a warm-started Howard.  Both arms run the one SHIFTS path (Howard +
// Dijkstra corrections); they differ in the closure and the warm start.
//
// The scenario grid is a superset of the retired E11 pipeline bench's (same
// names, same seeds, same perturbation streams), so BENCH_csr.json is
// directly comparable arm for arm against BENCH_pipeline.json, the frozen
// pre-CSR record E11 wrote.  Output path: argv[1], default ./BENCH_csr.json.

#include <chrono>
#include <fstream>
#include <sstream>

#include "core/global_estimates.hpp"
#include "graph/arena.hpp"
#include "graph/incremental_apsp.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sparse m̃ls-shaped graph: bidirectional ring plus random chords, small
/// positive weights — the same generator (and seeds) the retired E11 used.
struct MlsInstance {
  std::size_t n{0};
  std::vector<Edge> edges;

  Digraph build() const {
    Digraph g(n);
    for (const Edge& e : edges) g.add_edge(e.from, e.to, e.weight);
    return g;
  }
};

MlsInstance make_instance(std::size_t n, Rng& rng) {
  MlsInstance inst;
  inst.n = n;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId u = static_cast<NodeId>((v + 1) % n);
    inst.edges.push_back({v, u, rng.uniform(0.05, 0.5)});
    inst.edges.push_back({u, v, rng.uniform(0.05, 0.5)});
  }
  for (std::size_t c = 0; c < n; ++c) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
    if (a != b) inst.edges.push_back({a, b, rng.uniform(0.05, 0.5)});
  }
  return inst;
}

enum class Perturbation { kDecreaseOnly, kMixed };

void perturb(MlsInstance& inst, Perturbation kind, Rng& rng) {
  if (kind == Perturbation::kDecreaseOnly) {
    Edge& e = inst.edges[rng.uniform_int(inst.edges.size())];
    e.weight *= rng.uniform(0.6, 0.95);
    return;
  }
  switch (rng.uniform_int(4)) {
    case 0:
    case 1: {
      Edge& e = inst.edges[rng.uniform_int(inst.edges.size())];
      e.weight *= rng.uniform(0.6, 0.95);
      break;
    }
    case 2: {
      Edge& e = inst.edges[rng.uniform_int(inst.edges.size())];
      e.weight *= rng.uniform(1.05, 1.6);
      break;
    }
    default: {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(inst.n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(inst.n));
      if (a != b) inst.edges.push_back({a, b, rng.uniform(0.05, 0.5)});
      break;
    }
  }
}

struct ArmResult {
  double total_seconds{0.0};
  std::size_t epochs{0};
  Metrics metrics;
};

/// From-scratch oracle arm: full Johnson closure + cold SHIFTS per epoch.
ArmResult run_scratch(std::size_t n, std::size_t epochs, Perturbation kind,
                      std::uint64_t seed) {
  Rng rng(seed);
  MlsInstance inst = make_instance(n, rng);
  ArmResult arm;
  arm.epochs = epochs;
  const auto start = Clock::now();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) perturb(inst, kind, rng);
    const DistanceMatrix ms =
        global_shift_estimates(inst.build(), &arm.metrics);
    ShiftsOptions options;
    options.metrics = &arm.metrics;
    const ShiftsResult shifts = compute_shifts(ms, options);
    if (!shifts.bounded()) throw Error("E15: instance must stay bounded");
  }
  arm.total_seconds = seconds_since(start);
  return arm;
}

/// Incremental arm on the CSR hot path: delta-updated closure, Howard
/// warm-started from the previous policy, SHIFTS scratch in a reused arena.
ArmResult run_incremental(std::size_t n, std::size_t epochs,
                          Perturbation kind, std::uint64_t seed) {
  Rng rng(seed);
  MlsInstance inst = make_instance(n, rng);
  ArmResult arm;
  arm.epochs = epochs;
  IncrementalApsp apsp(IncrementalApspOptions{}, &arm.metrics);
  EpochArena shifts_arena;
  std::vector<NodeId> policy;
  const auto start = Clock::now();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) perturb(inst, kind, rng);
    {
      auto t = Metrics::scoped(&arm.metrics, "stage.global_estimates_seconds");
      if (!apsp.update(slack_relaxed_mls(inst.build())))
        throw Error("E15: instance must stay admissible");
    }
    ShiftsOptions options;
    options.metrics = &arm.metrics;
    options.arena = &shifts_arena;
    if (!policy.empty()) options.warm_policy = &policy;
    const ShiftsResult shifts = compute_shifts(apsp.distances(), options);
    policy = shifts.policy;
    if (!shifts.bounded()) throw Error("E15: instance must stay bounded");
  }
  arm.total_seconds = seconds_since(start);
  return arm;
}

double stage_sum(const Metrics& m, const std::string& name) {
  const MetricSeries* s = m.series(name);
  return s == nullptr ? 0.0 : s->sum;
}

void arm_json(std::ostringstream& out, const std::string& indent,
              const ArmResult& arm) {
  const std::uint64_t incr = arm.metrics.counter("apsp.incremental_updates");
  const std::uint64_t rebuilds = arm.metrics.counter("apsp.full_rebuilds");
  const std::uint64_t apsp_steps = incr + rebuilds +
                                   arm.metrics.counter("apsp.from_scratch_runs");
  out << "{\n"
      << indent << "  \"epochs\": " << arm.epochs << ",\n"
      << indent << "  \"total_seconds\": " << arm.total_seconds << ",\n"
      << indent << "  \"per_epoch_seconds\": "
      << arm.total_seconds / static_cast<double>(arm.epochs) << ",\n"
      << indent << "  \"stage_seconds\": {\n"
      << indent << "    \"global_estimates\": "
      << stage_sum(arm.metrics, "stage.global_estimates_seconds") << ",\n"
      << indent << "    \"shifts\": "
      << stage_sum(arm.metrics, "stage.shifts_seconds") << "\n"
      << indent << "  },\n"
      << indent << "  \"apsp\": {\n"
      << indent << "    \"incremental_updates\": " << incr << ",\n"
      << indent << "    \"full_rebuilds\": " << rebuilds << ",\n"
      << indent << "    \"from_scratch_runs\": "
      << arm.metrics.counter("apsp.from_scratch_runs") << ",\n"
      << indent << "    \"dirty_fallbacks\": "
      << arm.metrics.counter("apsp.dirty_fallbacks") << ",\n"
      << indent << "    \"incremental_hit_rate\": "
      << (apsp_steps == 0
              ? 0.0
              : static_cast<double>(incr) / static_cast<double>(apsp_steps))
      << "\n"
      << indent << "  },\n"
      << indent << "  \"howard\": {\n"
      << indent << "    \"warm_starts\": "
      << arm.metrics.counter("cycle_mean.howard_warm_starts") << ",\n"
      << indent << "    \"backstop_exits\": "
      << arm.metrics.counter("cycle_mean.howard_backstop_exits") << ",\n"
      << indent << "    \"mean_iterations\": "
      << (arm.metrics.series("cycle_mean.howard_iterations") == nullptr
              ? 0.0
              : arm.metrics.series("cycle_mean.howard_iterations")->mean())
      << "\n"
      << indent << "  }\n"
      << indent << "}";
}

struct Scenario {
  std::string name;
  std::size_t n;
  std::size_t epochs;
  Perturbation kind;
  std::uint64_t seed;
};

int run(const std::string& json_path) {
  print_header("E15", "CSR/arena hot path: per-epoch cost vs from-scratch");

  // E11's grid (same seeds, comparable arm for arm) extended to n = 256,
  // where the >= 10x per-epoch acceptance bar applies.
  const std::vector<Scenario> scenarios{
      {"single_edge_decrease_n64", 64, 50, Perturbation::kDecreaseOnly, 211},
      {"single_edge_decrease_n128", 128, 50, Perturbation::kDecreaseOnly,
       212},
      {"mixed_single_edge_n64", 64, 50, Perturbation::kMixed, 213},
      {"single_edge_decrease_n256", 256, 50, Perturbation::kDecreaseOnly,
       214},
      {"mixed_single_edge_n256", 256, 50, Perturbation::kMixed, 215},
  };

  Table table({"scenario", "n", "epochs", "scratch_ms", "incremental_ms",
               "speedup", "hit_rate"});

  std::ostringstream json;
  json << "{\n  \"schema_version\": 2,\n  \"bench\": \"e15_csr\",\n"
       << "  \"scenarios\": [\n";

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& sc = scenarios[s];
    // Warm the allocator/caches once so the first arm is not penalized.
    (void)run_incremental(sc.n, 3, sc.kind, sc.seed);

    const ArmResult scratch = run_scratch(sc.n, sc.epochs, sc.kind, sc.seed);
    const ArmResult inc = run_incremental(sc.n, sc.epochs, sc.kind, sc.seed);

    const double speedup = scratch.total_seconds / inc.total_seconds;
    const std::uint64_t incr_updates =
        inc.metrics.counter("apsp.incremental_updates");
    const double hit_rate =
        static_cast<double>(incr_updates) /
        static_cast<double>(incr_updates +
                            inc.metrics.counter("apsp.full_rebuilds"));

    table.add_row({sc.name, std::to_string(sc.n), std::to_string(sc.epochs),
                   Table::num(scratch.total_seconds * 1e3, 2),
                   Table::num(inc.total_seconds * 1e3, 2),
                   Table::num(speedup, 2), Table::num(hit_rate, 3)});

    json << "    {\n      \"name\": \"" << sc.name << "\",\n"
         << "      \"n\": " << sc.n << ",\n"
         << "      \"epochs\": " << sc.epochs << ",\n"
         << "      \"perturbation\": \""
         << (sc.kind == Perturbation::kDecreaseOnly ? "single_edge_decrease"
                                                    : "mixed_single_edge")
         << "\",\n      \"seed\": " << sc.seed << ",\n"
         << "      \"arms\": {\n        \"from_scratch\": ";
    arm_json(json, "        ", scratch);
    json << ",\n        \"incremental_warm\": ";
    arm_json(json, "        ", inc);
    json << "\n      },\n"
         << "      \"speedup_vs_from_scratch\": " << speedup
         << "\n    }" << (s + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  table.print(std::cout);

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "E15: cannot write " << json_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(argc > 1 ? argv[1] : "BENCH_csr.json");
}
