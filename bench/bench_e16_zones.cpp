// E16 — zone-hierarchical synchronization: precision vs zone size, and the
// 100k-agent datacenter fabric the dense pipeline cannot touch.
//
// Claims exercised:
//   * The Thm 5.5/5.6 composition is sound at every zone granularity —
//     realized precision never exceeds the composed bound, and the composed
//     bound contains the dense instance optimum Ã^max.
//   * The bound inflation (composed / dense) is the price of never
//     materializing the dense m̃s matrix; the curve over zone sizes shows
//     where that price sits for a datacenter fabric.
//   * A dc 4x512x199 fabric — 102,404 agents — synchronizes in one epoch
//     under natural (per-rack) zoning, with per-zone Thm 4.6 equality on
//     every bounded zone.  Dense APSP at that n is ~10^15 work; no dense
//     arm is attempted there.
//
// Usage: bench_e16_zones [--quick] [out.json]   (default ./BENCH_zones.json)
// --quick shrinks the fabrics for CI smoke; the committed artifact is the
// full run.

#include <chrono>
#include <thread>

#include "core/local_estimates.hpp"
#include "core/zones.hpp"
#include "lab/topo.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;
using cs::lab::make_datacenter;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kLb = 0.002;
constexpr double kUb = 0.008;

struct Fabric {
  std::string name;
  std::size_t spines, racks, hosts;
  std::uint64_t seed;
  bool dense_arm;  ///< whether the dense optimum is computed for reference
  std::size_t rounds;

  std::size_t nodes() const { return spines + racks + racks * hosts; }
};

struct ZoneArm {
  std::string name;  ///< "natural" or "size K"
  std::size_t size;  ///< 0 = natural (per-rack) zoning
};

void run_fabric(BenchJson& json, Table& table, const Fabric& f,
                std::span<const ZoneArm> arms, std::size_t threads) {
  const SystemModel model =
      bounded_model(make_datacenter(f.spines, f.racks, f.hosts), kLb, kUb);
  const auto probe_start = Clock::now();
  const Instance inst = probe(model, f.seed, 0.2, f.rounds, 0.05);
  const double probe_seconds = seconds_since(probe_start);

  const auto mls_start = Clock::now();
  SyncOptions opts;
  opts.threads = threads;
  const Digraph mls =
      ingest_views(model, inst.views, MatchPolicy::kStrict, opts.threads).mls;
  const double mls_seconds = seconds_since(mls_start);

  // Dense reference: the instance optimum Ã^max (only where n permits).
  double dense_optimum = 0.0;
  double dense_seconds = 0.0;
  if (f.dense_arm) {
    const auto t0 = Clock::now();
    const SyncOutcome dense = synchronize_mls(mls, opts);
    dense_seconds = seconds_since(t0);
    dense_optimum = dense.optimal_precision.finite();
    const double realized = realized_precision(inst.starts, dense.corrections);
    json.scenario(f.name + "/dense")
        .field("fabric", f.name)
        .field("nodes", model.processor_count())
        .field("arm", "dense")
        .field("zone_count", std::size_t{1})
        .field("bound", dense_optimum)
        .field("realized", realized)
        .field("solve_seconds", dense_seconds)
        .field("probe_seconds", probe_seconds)
        .field("mls_seconds", mls_seconds);
    table.add_row({f.name, std::to_string(model.processor_count()), "dense",
                   "1", Table::num(dense_optimum, 6), Table::num(realized, 6),
                   "1.00", Table::num(dense_seconds * 1e3, 1)});
  }

  for (const ZoneArm& arm : arms) {
    const ZonePlan plan =
        arm.size == 0 ? datacenter_zones(f.spines, f.racks, f.hosts)
                      : greedy_bfs_zones(model.topology(), arm.size);
    const auto t0 = Clock::now();
    const ZonedOutcome out = synchronize_zoned_mls(mls, plan, opts);
    const double solve_seconds = seconds_since(t0);
    if (!out.bounded()) throw Error("E16: fabric must stay bounded");

    const ZoneRealized realized =
        realized_precision_zoned(inst.starts, out.corrections, out.plan);
    double gap = out.quotient_thm46_gap;
    std::size_t max_size = 0;
    for (const ZoneStats& z : out.zones) {
      gap = std::max(gap, z.thm46_gap);
      max_size = std::max<std::size_t>(max_size, z.size);
    }
    const double bound = out.composed_bound.finite();
    const double inflation = f.dense_arm ? bound / dense_optimum : 0.0;

    json.scenario(f.name + "/" + arm.name)
        .field("fabric", f.name)
        .field("nodes", model.processor_count())
        .field("arm", arm.name)
        .field("zone_count", out.plan.count)
        .field("zone_max_size", max_size)
        .field("bound", bound)
        .field("realized", realized.overall)
        .field("realized_intra", realized.intra)
        .field("realized_cross", realized.cross)
        .field("max_zone_a_max", out.max_zone_a_max)
        .field("quotient_a_max", out.quotient_a_max.finite())
        .field("thm46_max_gap", gap)
        .field("solve_seconds", solve_seconds)
        .field("probe_seconds", probe_seconds)
        .field("mls_seconds", mls_seconds)
        .field("threads", threads);
    if (f.dense_arm) json.field("bound_over_dense", inflation);

    // Soundness is part of the benchmark, not just the tests.
    if (realized.overall > bound + 1e-9)
      throw Error("E16: realized precision exceeded the composed bound");
    if (f.dense_arm && bound + 1e-9 < dense_optimum)
      throw Error("E16: composed bound fell below the dense optimum");
    if (gap > 1e-6)
      throw Error("E16: per-zone Thm 4.6 equality violated");

    table.add_row({f.name, std::to_string(model.processor_count()), arm.name,
                   std::to_string(out.plan.count), Table::num(bound, 6),
                   Table::num(realized.overall, 6),
                   f.dense_arm ? Table::num(inflation, 2) : std::string("-"),
                   Table::num(solve_seconds * 1e3, 1)});
  }
}

int run(bool quick, const std::string& json_path) {
  print_header("E16", "zone composition: precision vs zone size, 100k fabric");
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Curve fabric: dense still tractable, so the bound inflation is measured
  // arm for arm.  Scale fabric: past the dense wall (no dense arm).
  const Fabric curve = quick ? Fabric{"dc_2x8x16", 2, 8, 16, 1601, true, 3}
                             : Fabric{"dc_4x24x40", 4, 24, 40, 1601, true, 3};
  const Fabric scale = quick
                           ? Fabric{"dc_2x64x49", 2, 64, 49, 1602, false, 2}
                           : Fabric{"dc_4x512x199", 4, 512, 199, 1602, false,
                                    2};

  const std::vector<ZoneArm> curve_arms{
      {"natural", 0}, {"size 8", 8},   {"size 16", 16},
      {"size 32", 32}, {"size 64", 64}, {"size 128", 128}};
  const std::vector<ZoneArm> scale_arms{{"natural", 0}};

  Table table({"fabric", "n", "arm", "zones", "bound", "realized",
               "bound/dense", "solve_ms"});
  BenchJson json("e16_zones");

  run_fabric(json, table, curve, curve_arms, threads);
  run_fabric(json, table, scale, scale_arms, threads);

  table.print(std::cout);
  return json.write(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_zones.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else
      out = arg;
  }
  return run(quick, out);
}
