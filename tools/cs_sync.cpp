// cs_sync — the command-line driver for the chronosync pipeline.
//
//   cs_sync simulate <out.trace> [flags]   record a run as a replayable trace
//   cs_sync sync <views> <model> [flags]   offline synchronization (§3–§6)
//   cs_sync replay <trace> [flags]         deterministic replay + self-check
//   cs_sync diff <a.trace> <b.trace>       structural trace comparison
//   cs_sync metrics <trace> [flags]        replay and dump counters/metrics
//
// Every subcommand takes --json for machine-readable output and --help for
// the flag reference (exit 0); --version prints the release.  Exit codes:
// 0 success, 1 divergences found (replay/diff), 2 usage error,
// 3 runtime error.  Run with no arguments for the full flag reference.
// Live agents run under cs_syncd.

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/version.hpp"
#include "core/epochs.hpp"
#include "core/synchronizer.hpp"
#include "core/zones.hpp"
#include "drift/oscillator.hpp"
#include "io/views_io.hpp"
#include "proto/beacon.hpp"
#include "proto/ping_pong.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

#include "cli.hpp"

namespace {

using namespace cs;
using namespace cs::cli;

constexpr int kExitOk = 0;
constexpr int kExitDivergence = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

// ---------------------------------------------------------------------------
// Output helpers

std::string jmap(const std::map<std::string, std::uint64_t>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += jstr(k) + ": " + std::to_string(v);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Shared option builders

SyncOptions sync_options_from(const Args& args) {
  SyncOptions opts;
  if (args.has("--root"))
    opts.root = parse_id_flag("--root", args.get("--root"));
  const std::string match = args.get("--match", "strict");
  if (match == "strict")
    opts.match = MatchPolicy::kStrict;
  else if (match == "drop-orphans")
    opts.match = MatchPolicy::kDropOrphans;
  else
    usage_fail("--match must be strict or drop-orphans, got '" + match +
               "'");
  return opts;
}

ReplayPlan plan_from(const Args& args) {
  ReplayPlan plan;
  plan.options.sync = sync_options_from(args);
  if (args.has("--window"))
    plan.options.window =
        Duration{parse_double_flag("--window", args.get("--window"))};
  if (args.on("--carry")) plan.options.staleness.carry_forward = true;
  if (args.has("--widen")) {
    plan.options.staleness.carry_forward = true;
    plan.options.staleness.widen_per_epoch =
        parse_double_flag("--widen", args.get("--widen"));
  }
  if (args.has("--max-age")) {
    plan.options.staleness.carry_forward = true;
    plan.options.staleness.max_carry_epochs = static_cast<std::size_t>(
        parse_u64_flag("--max-age", args.get("--max-age")));
  }
  if (args.has("--boundaries")) {
    for (const std::string& part :
         split(args.get("--boundaries"), ','))
      plan.boundaries.push_back(
          ClockTime{parse_double_flag("--boundaries", part)});
  }
  return plan;
}

void describe_epoch(std::size_t k, const EpochOutcome& ep) {
  std::printf("epoch %zu  boundary %s  precision %s  coverage %zu/%zu  "
              "carried %zu  paired %zu\n",
              k, text::format_double(ep.boundary.sec).c_str(),
              text::format_double(ep.sync.optimal_precision.value()).c_str(),
              ep.coverage.observed_directions, ep.coverage.total_directions,
              ep.carried_edges, ep.pairing.paired);
}

std::string epoch_json(const EpochOutcome& ep) {
  std::string out = "{";
  out += "\"boundary\": " + jnum(ep.boundary.sec);
  out += ", \"precision\": " + jnum(ep.sync.optimal_precision.value());
  out += ", \"coverage\": [" +
         std::to_string(ep.coverage.observed_directions) + ", " +
         std::to_string(ep.coverage.total_directions) + "]";
  out += ", \"carried_edges\": " + std::to_string(ep.carried_edges);
  out += ", \"paired\": " + std::to_string(ep.pairing.paired);
  out += ", \"corrections\": " + jarray(ep.sync.corrections);
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// simulate

int cmd_simulate(const Args& args) {
  if (args.positional().empty())
    usage_fail("simulate needs an output trace path");
  const std::string out_path = args.positional()[0];

  const std::uint64_t seed =
      parse_u64_flag("--seed", args.get("--seed", "1"));
  Rng rng(seed);

  const SystemModel model = model_from_flags(
      args, rng,
      {.topology = "ring", .n = "5", .lower = "0.002", .upper = "0.010"});
  const std::size_t n = model.processor_count();

  // The interactive part.
  AutomatonFactory factory;
  const std::string proto = args.get("--proto", "ping-pong");
  if (proto == "ping-pong") {
    PingPongParams params;
    params.warmup =
        Duration{parse_double_flag("--warmup", args.get("--warmup", "0.5"))};
    params.spacing = Duration{
        parse_double_flag("--spacing", args.get("--spacing", "0.05"))};
    params.rounds = static_cast<std::size_t>(
        parse_u64_flag("--rounds", args.get("--rounds", "4")));
    factory = make_ping_pong(params);
  } else if (proto == "beacon") {
    BeaconParams params;
    params.warmup =
        Duration{parse_double_flag("--warmup", args.get("--warmup", "0.5"))};
    params.period = Duration{
        parse_double_flag("--period", args.get("--period", "0.1"))};
    params.count = static_cast<std::size_t>(
        parse_u64_flag("--count", args.get("--count", "5")));
    factory = make_beacon(params);
  } else {
    usage_fail("--proto must be ping-pong or beacon, got '" + proto + "'");
  }

  // The environment.
  SimOptions sim_opts;
  sim_opts.seed = seed;
  const double skew = parse_double_flag("--skew", args.get("--skew", "0"));
  if (skew > 0.0) {
    Rng skew_rng = rng.split(0x5EEDu);
    sim_opts.start_offsets = random_start_offsets(n, skew, skew_rng);
  } else {
    sim_opts.start_offsets.assign(n, Duration{0.0});
  }
  if (args.has("--delay-scale"))
    sim_opts.delay_scale =
        parse_double_flag("--delay-scale", args.get("--delay-scale"));

  // --drift R: constant-skew oscillators in [1 - R·1e-6, 1 + R·1e-6] on a
  // dedicated seed stream (docs/DRIFT.md).  Drifting rates step outside
  // the paper's model, so admissibility enforcement is turned off — the
  // recorded trace still replays bit-identically (rates are recorded).
  const double drift_ppm =
      parse_double_flag("--drift", args.get("--drift", "0"));
  if (drift_ppm < 0.0) usage_fail("--drift wants a ppm value >= 0");
  if (drift_ppm > 0.0) {
    drift::OscillatorSpec osc;
    osc.kind = drift::OscillatorSpec::Kind::kConstant;
    osc.ppm = drift_ppm;
    drift::draw_oscillators(osc, n, seed ^ 0xD21F705C1ULL).apply(sim_opts);
  }

  FaultPlan faults;
  bool any_faults = false;
  faults.seed = parse_u64_flag("--fault-seed",
                               args.get("--fault-seed", "64279"));
  if (args.has("--drop")) {
    faults.default_link.drop_probability =
        parse_double_flag("--drop", args.get("--drop"));
    any_faults = true;
  }
  if (args.has("--dup")) {
    faults.default_link.duplicate_probability =
        parse_double_flag("--dup", args.get("--dup"));
    any_faults = true;
  }
  if (args.has("--spike")) {
    faults.default_link.spike_probability =
        parse_double_flag("--spike", args.get("--spike"));
    faults.default_link.spike_magnitude = parse_double_flag(
        "--spike-mag", args.get("--spike-mag", "0.05"));
    any_faults = true;
  }
  if (args.has("--down")) {
    // --down a:b:from:until — a link outage window.
    const auto parts = split(args.get("--down"), ':');
    if (parts.size() != 4) usage_fail("--down wants a:b:from:until");
    const ProcessorId a = parse_id_flag("--down", parts[0]);
    const ProcessorId b = parse_id_flag("--down", parts[1]);
    faults.link(a, b).down.push_back(
        TimeWindow{RealTime{parse_double_flag("--down", parts[2])},
                   RealTime{parse_double_flag("--down", parts[3])}});
    any_faults = true;
  }
  if (args.has("--crash")) {
    // --crash pid:from[:until] — a processor crash window.
    const auto parts = split(args.get("--crash"), ':');
    if (parts.size() != 2 && parts.size() != 3)
      usage_fail("--crash wants pid:from[:until]");
    const ProcessorId pid = parse_id_flag("--crash", parts[0]);
    const RealTime from{parse_double_flag("--crash", parts[1])};
    if (parts.size() == 3)
      faults.crash(pid, from,
                   RealTime{parse_double_flag("--crash", parts[2])});
    else
      faults.crash(pid, from);
    any_faults = true;
  }
  if (any_faults) sim_opts.faults = &faults;

  const ReplayPlan plan = plan_from(args);

  TraceWriter writer(out_path);
  const RecordResult result =
      record_run(model, factory, sim_opts, plan, writer);

  if (args.has("--views"))
    save_views_file(args.get("--views"), result.sim.execution.views());

  if (args.on("--json")) {
    std::string out = "{\"trace\": " + jstr(out_path);
    out += ", \"processors\": " + std::to_string(n);
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"delivered\": " +
           std::to_string(result.sim.delivered_messages);
    out += ", \"fault_dropped\": " +
           std::to_string(result.sim.fault_dropped_messages);
    out += ", \"epochs\": [";
    for (std::size_t k = 0; k < result.epochs.size(); ++k) {
      if (k > 0) out += ", ";
      out += epoch_json(result.epochs[k]);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  std::printf("recorded %s: %zu processors, %zu events, %zu epochs\n",
              out_path.c_str(), n, writer.trace().events.size(),
              result.epochs.size());
  std::printf("delivered %zu  lost %zu  fault-dropped %zu  duplicated %zu  "
              "crash-dropped %zu\n",
              result.sim.delivered_messages, result.sim.lost_messages,
              result.sim.fault_dropped_messages,
              result.sim.duplicated_messages,
              result.sim.crash_dropped_deliveries);
  for (std::size_t k = 0; k < result.epochs.size(); ++k)
    describe_epoch(k, result.epochs[k]);
  return kExitOk;
}

// ---------------------------------------------------------------------------
// sync

int cmd_sync(const Args& args) {
  if (args.positional().size() != 2)
    usage_fail("sync needs exactly <views-file> <model-file>");
  const std::vector<View> views = load_views_file(args.positional()[0]);
  const SystemModel model = load_model_file(args.positional()[1]);
  const SyncOptions opts = sync_options_from(args);

  if (args.has("--zones")) {
    // Zone-hierarchical composition (Thm 5.5/5.6): per-zone SHIFTS, leader
    // quotient, composed bound.  Reports the per-zone breakdown alongside
    // the composed corrections.
    const std::size_t target = static_cast<std::size_t>(
        parse_u64_flag("--zones", args.get("--zones")));
    if (target == 0) usage_fail("--zones wants a target zone size >= 1");
    const ZonePlan plan = greedy_bfs_zones(model.topology(), target);
    const ZonedOutcome z = synchronize_zoned(model, views, plan, opts);

    if (args.on("--json")) {
      std::string out =
          "{\"precision\": " + jnum(z.composed_bound.value());
      out += ", \"bounded\": " + jbool(z.bounded());
      out += ", \"zone_count\": " + std::to_string(z.plan.count);
      out += ", \"max_zone_a_max\": " + jnum(z.max_zone_a_max);
      out += ", \"quotient_a_max\": " + jnum(z.quotient_a_max.value());
      out += ", \"zones\": [";
      for (std::size_t i = 0; i < z.zones.size(); ++i) {
        const ZoneStats& zs = z.zones[i];
        if (i > 0) out += ", ";
        out += "{\"leader\": " + std::to_string(zs.leader);
        out += ", \"size\": " + std::to_string(zs.size);
        out += ", \"bounded\": " + jbool(zs.bounded);
        out += ", \"a_max\": " +
               jnum(zs.bounded ? zs.a_max
                               : std::numeric_limits<double>::infinity());
        out += ", \"thm46_gap\": " + jnum(zs.thm46_gap) + "}";
      }
      out += "], \"corrections\": " + jarray(z.corrections) + "}";
      std::printf("%s\n", out.c_str());
      return kExitOk;
    }

    std::printf("composed precision %s  (%zu zones, max zone A^max %s, "
                "quotient A^max %s)\n",
                text::format_double(z.composed_bound.value()).c_str(),
                z.plan.count, text::format_double(z.max_zone_a_max).c_str(),
                text::format_double(z.quotient_a_max.value()).c_str());
    for (std::size_t i = 0; i < z.zones.size(); ++i)
      std::printf("zone %zu  leader %u  size %u  A^max %s  thm4.6 gap %s\n",
                  i, static_cast<unsigned>(z.zones[i].leader),
                  static_cast<unsigned>(z.zones[i].size),
                  text::format_double(
                      z.zones[i].bounded
                          ? z.zones[i].a_max
                          : std::numeric_limits<double>::infinity())
                      .c_str(),
                  text::format_double(z.zones[i].thm46_gap).c_str());
    for (std::size_t p = 0; p < z.corrections.size(); ++p)
      std::printf("correction %zu %s\n", p,
                  text::format_double(z.corrections[p]).c_str());
    return kExitOk;
  }

  const SyncOutcome outcome = synchronize(model, views, opts);

  if (args.on("--json")) {
    std::string out = "{\"precision\": " +
                      jnum(outcome.optimal_precision.value());
    out += ", \"bounded\": " + jbool(outcome.bounded());
    out += ", \"corrections\": " + jarray(outcome.corrections);
    if (!outcome.bounded())
      out += ", \"component_precision\": " +
             jarray(outcome.component_precision);
    out += "}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  std::printf("precision %s\n",
              text::format_double(outcome.optimal_precision.value()).c_str());
  for (std::size_t p = 0; p < outcome.corrections.size(); ++p)
    std::printf("correction %zu %s\n", p,
                text::format_double(outcome.corrections[p]).c_str());
  if (!outcome.bounded())
    for (std::size_t c = 0; c < outcome.component_precision.size(); ++c)
      std::printf("component %zu precision %s\n", c,
                  text::format_double(outcome.component_precision[c]).c_str());
  return kExitOk;
}

// ---------------------------------------------------------------------------
// replay

int cmd_replay(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("replay needs exactly one <trace-file>");
  const Trace trace = load_trace_file(args.positional()[0]);
  const ReplayResult result = replay(trace);

  if (args.has("--rerecord"))
    save_trace_file(args.get("--rerecord"), rerecorded(trace, result));

  if (args.on("--json")) {
    std::string out = "{\"epochs\": " + std::to_string(result.epochs.size());
    out += ", \"match\": " + jbool(result.matches_recording());
    out += ", \"divergences\": " + jarray(result.divergences) + "}";
    std::printf("%s\n", out.c_str());
  } else {
    for (std::size_t k = 0; k < result.epochs.size(); ++k)
      describe_epoch(k, result.epochs[k]);
    if (result.matches_recording()) {
      std::printf("replay matches the recording (%zu events, %zu epochs)\n",
                  trace.events.size(), result.epochs.size());
    } else {
      for (const std::string& d : result.divergences)
        std::printf("divergence: %s\n", d.c_str());
    }
  }
  return result.matches_recording() ? kExitOk : kExitDivergence;
}

// ---------------------------------------------------------------------------
// diff

int cmd_diff(const Args& args) {
  if (args.positional().size() != 2)
    usage_fail("diff needs exactly <a.trace> <b.trace>");
  const Trace a = load_trace_file(args.positional()[0]);
  const Trace b = load_trace_file(args.positional()[1]);
  const std::size_t cap = static_cast<std::size_t>(
      parse_u64_flag("--max-reports", args.get("--max-reports", "16")));
  const std::vector<std::string> divergences = diff_traces(a, b, cap);

  if (args.on("--json")) {
    std::string out = "{\"equal\": " + jbool(divergences.empty());
    out += ", \"divergences\": " + jarray(divergences) + "}";
    std::printf("%s\n", out.c_str());
  } else if (divergences.empty()) {
    std::printf("traces are structurally identical\n");
  } else {
    for (const std::string& d : divergences)
      std::printf("diff: %s\n", d.c_str());
  }
  return divergences.empty() ? kExitOk : kExitDivergence;
}

// ---------------------------------------------------------------------------
// metrics

int cmd_metrics(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("metrics needs exactly one <trace-file>");
  Metrics ingest;
  Trace trace;
  {
    auto timer = Metrics::scoped(&ingest, "stage.ingest.parse_seconds");
    trace = load_trace_file(args.positional()[0]);
  }
  ReplayResult result = replay(trace);
  result.metrics.merge(ingest);

  if (args.on("--json")) {
    std::string out = "{\n\"tallies\": " + jmap(trace.tallies);
    out += ",\n\"recorded_counters\": " + jmap(trace.counters);
    out += ",\n\"replayed\": " + result.metrics.to_json(2);
    out += "\n}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  for (const auto& [name, value] : trace.tallies)
    std::printf("tally %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  for (const auto& [name, value] : result.metrics.counters())
    std::printf("counter %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  return kExitOk;
}

// ---------------------------------------------------------------------------

void print_usage(std::FILE* out) {
  std::fprintf(out, R"(cs_sync — chronosync pipeline driver

usage: cs_sync <subcommand> [args] [flags]

subcommands:
  simulate <out.trace>     record a simulated run as a replayable trace
  sync <views> <model>     offline synchronization from interchange files
                           (--zones K: Thm 5.5/5.6 zone composition over
                           greedy BFS zones of ~K nodes, with the per-zone
                           breakdown)
  replay <trace>           deterministic replay, verified vs. the recording
  diff <a.trace> <b.trace> structural trace comparison
  metrics <trace>          replay and dump tallies/counters
  version                  print the release banner (also --version)

common flags:
  --json                   machine-readable output (every subcommand)

pipeline flags (simulate, sync):
  --root N --match strict|drop-orphans

simulate flags:
  --topology ring|line|star|complete|... --n N --lower S --upper S
  --model FILE             use an explicit chronosync-model file instead
  --proto ping-pong|beacon --rounds N --spacing S --warmup S
  --period S --count N     (beacon)
  --seed U --skew S --delay-scale S
  --drift R                constant-skew oscillators, band R ppm
                           (docs/DRIFT.md; disables the admissibility check)
  --drop P --dup P --spike P --spike-mag S --fault-seed U
  --down a:b:from:until    link outage window
  --crash pid:from[:until] processor crash window
  --boundaries t1,t2,...   epoch schedule (default: one epoch over all)
  --window S --carry --widen S --max-age N
  --views FILE             also dump the views interchange file

replay flags (replay, diff and metrics rerun the trace's recorded plan):
  --rerecord FILE          write the trace with replayed outcomes

diff flags:
  --max-reports N          divergence report cap (default 16)

live agents over a real transport run under cs_syncd (docs/RUNTIME.md)

a flag its subcommand does not read is a usage error
exit codes: 0 ok, 1 divergence found, 2 usage error, 3 runtime error
any '<subcommand> --help' prints this reference and exits 0
)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    print_usage(argc < 2 ? stderr : stdout);
    return argc < 2 ? kExitUsage : kExitOk;
  }
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", kVersionBanner);
    return kExitOk;
  }
  // `cs_sync <sub> --help` is a request for the reference, not a flag
  // error: honor it before flag validation, uniformly across subcommands.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout);
      return kExitOk;
    }
  }
  try {
    // Each subcommand accepts exactly the flags its code reads.  replay,
    // diff and metrics rerun a trace's recorded plan, so they take none of
    // the pipeline flags.
    struct Subcommand {
      int (*run)(const Args&);
      FlagSet flags;
    };
    const std::map<std::string, Subcommand> subcommands{
        {"simulate",
         {cmd_simulate,
          {{"--root", "--match", "--topology", "--n", "--lower", "--upper",
            "--model", "--proto", "--rounds", "--spacing", "--warmup",
            "--period", "--count", "--seed", "--skew", "--delay-scale",
            "--drift", "--drop", "--dup", "--spike", "--spike-mag",
            "--fault-seed", "--down", "--crash", "--boundaries", "--window",
            "--widen", "--max-age", "--views"},
           {"--json", "--carry"}}}},
        {"sync", {cmd_sync, {{"--root", "--match", "--zones"}, {"--json"}}}},
        {"replay", {cmd_replay, {{"--rerecord"}, {"--json"}}}},
        {"diff", {cmd_diff, {{"--max-reports"}, {"--json"}}}},
        {"metrics", {cmd_metrics, {{}, {"--json"}}}},
    };
    const auto it = subcommands.find(command);
    if (it == subcommands.end())
      usage_fail("unknown subcommand '" + command + "'");
    return it->second.run(Args(command, argc - 2, argv + 2, it->second.flags));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "cs_sync: usage error: %s\n", e.message.c_str());
    std::fprintf(stderr, "run 'cs_sync help' for the flag reference\n");
    return kExitUsage;
  } catch (const Error& e) {
    std::fprintf(stderr, "cs_sync: error: %s\n", e.what());
    return kExitError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs_sync: error: %s\n", e.what());
    return kExitError;
  }
}
