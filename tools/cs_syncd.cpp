// cs_syncd — the live clock-synchronization front end.
//
// Default (live) mode launches n SyncAgent automata over a live transport
// (deterministic loopback, threaded loopback, or UDP over localhost), runs
// the §7 probe → report → compute → disseminate protocol for the
// configured number of epochs, and prints the converged corrections plus
// the achieved precision.  The heavy lifting lives in
// src/runtime/daemon.cpp (run_live); this binary is flag parsing and
// reporting.  --serve and --peers run the chronosync-wire daemons of
// docs/NET.md.
//
//   cs_syncd --n 8 --transport udp --epochs 2 --json
//
// Exit codes match cs_sync: 0 converged (and, unless --no-check, the
// deterministic-loopback corrections matched the offline pipeline),
// 1 not converged, an offline mismatch or a detected epoch, 2 usage error,
// 3 error.  docs/RUNTIME.md §8 lists the keys of every --json report.
#include <time.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/version.hpp"
#include "core/zones.hpp"
#include "net/daemon.hpp"
#include "net/server.hpp"
#include "runtime/daemon.hpp"

#include "cli.hpp"

namespace {

using namespace cs;
using namespace cs::cli;

constexpr int kExitOk = 0;
constexpr int kExitDivergence = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

void print_usage(std::FILE* out) {
  std::fprintf(out, R"(cs_syncd — the live clock-synchronization front end
(cs_sync is the offline driver)

usage: cs_syncd [flags]

  --transport loopback|loopback-threaded|udp   (default loopback)
  --topology NAME --n N    model shape (default complete, 8 agents)
  --lower S --upper S      per-link delay bounds (default [0, 1])
  --model FILE             explicit chronosync-model file instead
  --seed U --skew S        run seed and random start-offset scale
  --delay-scale S --drop P loopback delay/drop injection
  --warmup S --spacing S --rounds N    probe phase, per epoch
  --report-at S --period S --epochs N  epoch schedule
  --grace S                degraded-mode watchdog (0 = wait forever)
  --zones K                split realized precision into intra-/cross-zone
                           components over greedy BFS ~K-node zones
                           (docs/ZONES.md)
  --drift-ppm R --drift-slack S
                           declare an oscillator band of R ppm and a
                           precision slack of S seconds; the epoch period
                           is clamped to S/(2*R*1e-6) so drift between
                           re-syncs never spends more than S, and each
                           epoch reports its drift-adjusted bound
                           (docs/DRIFT.md)
  --byz-plan "SPEC"        Byzantine plan: lying agents corrupt the stamps
                           in their probe/echo payloads.  SPEC is the
                           byz/plan.hpp grammar, e.g.
                           "equivocate f=2 mag=0.05" or
                           "lie-const agents=3 mag=0.02 from=1 until=3";
                           dishonest runs skip the offline cross-check
                           (docs/BYZ.md)
  --leader N --deadline S --trace FILE
  --no-check               skip the offline cross-check
  --json                   machine-readable report (docs/RUNTIME.md §8)
  --version                print the release banner

wire-protocol modes (chronosync-wire v1, docs/NET.md):
  --bind ADDR              bind address for --transport udp endpoints
                           ("127.0.0.1" default, "*" = all interfaces);
                           invalid addresses are a hard error, not a
                           silent loopback fallback
  --listen ADDR:PORT --serve
                           multi-client echo daemon: one epoll (or poll)
                           event loop serving Hello/ProbeBatch sessions
                           from any number of remote agents
  --serve-seconds S        serve duration (0 = until SIGINT/SIGTERM)
  --max-sessions N --idle-timeout S     session-table limits in --serve
  --listen ADDR:PORT --id K --peers A0:P0,A1:P1,...
                           multihost agent K of a LAN run: probe topology
                           neighbors over UDP, report extremes to the
                           leader, converge to the Thm 4.6 corrections
  --base T                 shared clock origin, unix seconds (all daemons
                           of one run must agree; default: next whole
                           second + 1 — pass it explicitly in scripts)
  --start-offset S         this daemon's start offset S_p (default 0)
  --offsets s0,s1,...      leader only: the true offsets; enables the
                           realized-vs-claimed precision check

each mode takes only the flags it reads; any other flag is a usage error:
  live (default)           everything above the wire-protocol modes, --bind
  --serve                  --listen --id --max-sessions --idle-timeout
                           --serve-seconds --json
  --peers                  --topology --n --lower --upper --model --seed
                           --warmup --spacing --rounds --report-at --leader
                           --deadline --json and the multihost flags above

exit codes: 0 ok, 1 not converged / offline mismatch / detected epoch,
2 usage error, 3 error
)");
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

double realtime_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Both agent modes build their model from the same flags and defaults.
SystemModel agent_model(const Args& args, std::uint64_t seed) {
  Rng rng(seed);
  return model_from_flags(
      args, rng, {.topology = "complete", .n = "8", .lower = "0", .upper = "1"});
}

/// --serve: the multi-client echo daemon (net::SyncServer) on --listen.
int cmd_serve(const Args& args) {
  net::SyncServerConfig config;
  config.listen = net::parse_hostport(args.get("--listen", "127.0.0.1:0"));
  config.agent = parse_id_flag("--id", args.get("--id", "0"));
  config.session.max_sessions = static_cast<std::size_t>(parse_u64_flag(
      "--max-sessions", args.get("--max-sessions", "100000")));
  config.session.idle_timeout = Duration{parse_double_flag(
      "--idle-timeout", args.get("--idle-timeout", "30"))};
  const double serve_seconds = parse_double_flag(
      "--serve-seconds", args.get("--serve-seconds", "0"));
  net::SyncServer server(config);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr, "cs_syncd: serving chronosync-wire v1 on %s\n",
               net::to_string(server.local_address()).c_str());
  const double until =
      serve_seconds > 0.0 ? realtime_now() + serve_seconds : 0.0;
  while (g_stop == 0 && (until == 0.0 || realtime_now() < until))
    server.step(100);

  if (args.on("--json")) {
    std::string out = "{\"mode\": \"serve\"";
    out += ", \"listen\": " + jstr(net::to_string(server.local_address()));
    out += ", \"sessions\": " + std::to_string(server.active_sessions());
    out += ", \"peak_sessions\": " + std::to_string(server.peak_sessions());
    out += ", \"frames\": " + std::to_string(server.frames_received());
    out += "}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("cs_syncd: served %llu frames, %zu sessions (peak %zu)\n",
                static_cast<unsigned long long>(server.frames_received()),
                server.active_sessions(), server.peak_sessions());
  }
  return kExitOk;
}

/// --peers: one agent of a multihost LAN run (net::NetDaemon).
int cmd_peers(const Args& args) {
  const SystemModel model =
      agent_model(args, parse_u64_flag("--seed", args.get("--seed", "1")));
  net::NetDaemonConfig config;
  config.model = &model;
  config.id = parse_id_flag("--id", args.get("--id", "0"));
  config.leader = parse_id_flag("--leader", args.get("--leader", "0"));
  for (const std::string& part : split(args.get("--peers"), ','))
    config.peers.push_back(net::parse_hostport(part));
  if (args.has("--listen") && config.id < config.peers.size())
    config.peers[config.id] = net::parse_hostport(args.get("--listen"));

  // Shared schedule origin: every daemon of the run must use the same
  // value.  The default only works when all daemons launch within the
  // same second — scripts pass --base explicitly.
  config.base = args.has("--base")
                    ? parse_double_flag("--base", args.get("--base"))
                    : std::floor(realtime_now()) + 2.0;
  config.start_offset = Duration{parse_double_flag(
      "--start-offset", args.get("--start-offset", "0"))};
  config.warmup =
      Duration{parse_double_flag("--warmup", args.get("--warmup", "0.3"))};
  config.spacing =
      Duration{parse_double_flag("--spacing", args.get("--spacing", "0.05"))};
  config.rounds = static_cast<std::size_t>(
      parse_u64_flag("--rounds", args.get("--rounds", "6")));
  config.report_at = Duration{
      parse_double_flag("--report-at", args.get("--report-at", "1.2"))};
  config.deadline =
      Duration{parse_double_flag("--deadline", args.get("--deadline", "15"))};

  std::vector<double> offsets;
  if (args.has("--offsets")) {
    for (const std::string& part : split(args.get("--offsets"), ','))
      offsets.push_back(parse_double_flag("--offsets", part));
    if (offsets.size() != model.processor_count())
      usage_fail("--offsets wants one value per agent");
  }

  net::NetDaemon daemon(config);
  const net::NetDaemonReport report = daemon.run();

  bool ok = report.converged && !report.window_violation;
  std::string realized_note;
  std::optional<double> realized;
  const bool is_leader = config.id == config.leader;

  if (is_leader && report.computed) {
    // Offline cross-check: recompute from the collected (wire-transported,
    // bit-exact) extremes table and compare corrections bitwise.
    const SyncOutcome offline = net::synchronize_from_extremes(
        model, report.collected, config.leader);
    if (offline.corrections != report.corrections) {
      ok = false;
      realized_note = "offline recompute mismatch";
    }
    if (!offsets.empty()) {
      // Ground truth: corrected clock spread max_p (x_p - S_p) - min_p.
      double lo = report.corrections[0] - offsets[0];
      double hi = lo;
      for (std::size_t p = 1; p < offsets.size(); ++p) {
        const double v = report.corrections[p] - offsets[p];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      realized = hi - lo;
      if (std::isfinite(report.precision) &&
          *realized > report.precision + 1e-9) {
        ok = false;
        realized_note = "realized precision exceeds the claimed bound";
      }
    }
  }

  if (args.on("--json")) {
    std::string out = "{\"mode\": \"multihost\"";
    out += ", \"id\": " + std::to_string(config.id);
    out += ", \"leader\": " + std::to_string(config.leader);
    out += ", \"converged\": " + jbool(report.converged);
    out += ", \"computed\": " + jbool(report.computed);
    out += ", \"detected\": " + jbool(report.detected);
    out += ", \"window_violation\": " + jbool(report.window_violation);
    if (report.converged) {
      out += ", \"precision\": " + jnum(report.precision);
      out += ", \"corrections\": " + jarray(report.corrections);
    }
    if (realized) out += ", \"realized\": " + jnum(*realized);
    out += ", \"probes_sent\": " + std::to_string(report.probes_sent);
    out += ", \"observations\": " +
           std::to_string(report.probe_obs + report.echo_obs);
    out += ", \"ambiguous_dropped\": " +
           std::to_string(report.ambiguous_dropped);
    out += ", \"extremes\": [";
    for (std::size_t i = 0; i < report.collected.size(); ++i) {
      const ReportedExtremes& r = report.collected[i];
      if (i > 0) out += ", ";
      out += "{\"agent\": " + std::to_string(r.agent) + ", \"dirs\": [";
      for (std::size_t j = 0; j < r.dirs.size(); ++j) {
        const DirectionExtremes& d = r.dirs[j];
        if (j > 0) out += ", ";
        out += "[" + std::to_string(d.peer) + ", " + jnum(d.dmin) + ", " +
               jnum(d.dmax) + ", " + std::to_string(d.count) + "]";
      }
      out += "]}";
    }
    out += "]";
    if (!realized_note.empty()) out += ", \"error\": " + jstr(realized_note);
    out += "}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("cs_syncd: multihost agent %u/%zu (%s)\n", config.id,
                config.peers.size(), is_leader ? "leader" : "follower");
    if (report.converged) {
      std::printf("  precision %s%s%s\n",
                  text::format_double(report.precision).c_str(),
                  realized
                      ? (" realized " + text::format_double(*realized)).c_str()
                      : "",
                  report.window_violation ? " WINDOW VIOLATION" : "");
    }
    std::printf("  %llu probes, %llu observations, %llu ambiguous dropped\n",
                static_cast<unsigned long long>(report.probes_sent),
                static_cast<unsigned long long>(report.probe_obs +
                                                report.echo_obs),
                static_cast<unsigned long long>(report.ambiguous_dropped));
    std::printf("%s\n", ok ? "converged"
                           : report.detected ? "DETECTED: inadmissible traffic"
                                             : "NOT CONVERGED");
    if (!realized_note.empty())
      std::printf("ERROR: %s\n", realized_note.c_str());
  }
  return ok ? kExitOk : kExitDivergence;
}

/// The live report as JSON: one schema, docs/RUNTIME.md §8.
std::string live_json(const LiveReport& report, std::uint64_t seed) {
  std::string out = "{\"transport\": " + jstr(report.transport);
  out += ", \"agents\": " + std::to_string(report.agents);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"converged\": " + jbool(report.converged);
  out += ", \"checked\": " + jbool(report.checked);
  out += ", \"all_match\": " + jbool(report.all_match);
  out += ", \"byzantine\": " + jbool(report.byzantine);
  out += ", \"byz_liars\": " + std::to_string(report.byz_liars);
  out += ", \"detected_epochs\": " + std::to_string(report.detected_epochs);
  out += ", \"dispatched\": " + std::to_string(report.dispatched);
  out += ", \"resync_period\": " + jnum(report.resync_period.sec);
  out += ", \"resync_epochs\": " + std::to_string(report.resync_epochs);
  out += ", \"resync_clamped\": " + jbool(report.resync_clamped);
  out += ", \"epochs\": [";
  for (std::size_t k = 0; k < report.epochs.size(); ++k) {
    const LiveEpochReport& ep = report.epochs[k];
    const auto add_if_set = [&](const char* key,
                                const std::optional<double>& v) {
      if (v) out += std::string(", \"") + key + "\": " + jnum(*v);
    };
    if (k > 0) out += ", ";
    out += "{\"epoch\": " + std::to_string(ep.epoch);
    out += ", \"boundary\": " + jnum(ep.boundary.sec);
    out += ", \"computed\": " + jbool(ep.claimed_precision.has_value());
    out += ", \"detected\": " + jbool(ep.detected);
    out += ", \"degraded\": " + jbool(ep.degraded);
    out += ", \"matches_offline\": " + jbool(ep.matches_offline);
    add_if_set("precision", ep.claimed_precision);
    add_if_set("drift_bound", ep.drift_bound);
    add_if_set("realized", ep.realized_precision);
    add_if_set("realized_intra", ep.realized_intra);
    add_if_set("realized_cross", ep.realized_cross);
    add_if_set("offline_precision", ep.offline_precision);
    out += ", \"reports\": " + std::to_string(ep.reports_absorbed);
    out += ", \"acks\": " + std::to_string(ep.acks);
    out += ", \"corrections\": " + jarray(ep.corrections) + "}";
  }
  return out + "], \"metrics\": " + report.metrics.to_json(0) + "}";
}

/// Default mode: n in-process agents over a live transport (run_live).
int cmd_live(const Args& args) {
  const std::uint64_t seed = parse_u64_flag("--seed", args.get("--seed", "1"));
  const SystemModel model = agent_model(args, seed);

  LiveConfig config;
  config.seed = seed;
  config.skew = parse_double_flag("--skew", args.get("--skew", "0.05"));
  const std::string transport = args.get("--transport", "loopback");
  if (transport == "loopback")
    config.transport = LiveTransportKind::kLoopback;
  else if (transport == "loopback-threaded")
    config.transport = LiveTransportKind::kLoopbackThreaded;
  else if (transport == "udp")
    config.transport = LiveTransportKind::kUdp;
  else
    usage_fail("--transport must be loopback, loopback-threaded or udp, "
               "got '" + transport + "'");
  config.delay_scale = parse_double_flag(
      "--delay-scale", args.get("--delay-scale", "0.01"));
  config.drop_probability =
      parse_double_flag("--drop", args.get("--drop", "0"));
  config.udp.bind_address = args.get("--bind", "127.0.0.1");
  config.trace_path = args.get("--trace", "");
  config.offline_check = !args.on("--no-check");
  config.deadline =
      Duration{parse_double_flag("--deadline", args.get("--deadline", "30"))};
  config.agent.warmup =
      Duration{parse_double_flag("--warmup", args.get("--warmup", "0.2"))};
  config.agent.spacing =
      Duration{parse_double_flag("--spacing", args.get("--spacing", "0.05"))};
  config.agent.rounds = static_cast<std::size_t>(
      parse_u64_flag("--rounds", args.get("--rounds", "4")));
  config.agent.report_at = Duration{
      parse_double_flag("--report-at", args.get("--report-at", "1"))};
  config.agent.period =
      Duration{parse_double_flag("--period", args.get("--period", "1"))};
  config.agent.epochs = static_cast<std::size_t>(
      parse_u64_flag("--epochs", args.get("--epochs", "2")));
  config.agent.grace =
      Duration{parse_double_flag("--grace", args.get("--grace", "0"))};
  config.agent.leader = parse_id_flag("--leader", args.get("--leader", "0"));
  config.drift.rho =
      parse_double_flag("--drift-ppm", args.get("--drift-ppm", "0")) * 1e-6;
  config.drift.slack =
      parse_double_flag("--drift-slack", args.get("--drift-slack", "0"));
  if ((config.drift.rho > 0.0) != (config.drift.slack > 0.0))
    usage_fail("--drift-ppm and --drift-slack go together");
  if (args.has("--byz-plan"))
    config.byz = byz::parse_byz_plan(args.get("--byz-plan"));

  std::optional<ZonePlan> zone_plan;
  if (args.has("--zones")) {
    const auto target = static_cast<std::size_t>(
        parse_u64_flag("--zones", args.get("--zones")));
    if (target == 0) usage_fail("--zones wants a target zone size >= 1");
    zone_plan = greedy_bfs_zones(model.topology(), target);
    config.zones = &*zone_plan;
  }

  const LiveReport report = run_live(model, config);
  // A detected epoch is a synchronization outage: the leader rejected the
  // traffic as inadmissible (wrong bounds or a lying agent) and computed
  // no corrections.  That is a failure exit, same as the lab's --check.
  const bool ok = report.converged && report.detected_epochs == 0 &&
                  (!report.checked || report.all_match);

  if (args.on("--json")) {
    std::printf("%s\n", live_json(report, seed).c_str());
    return ok ? kExitOk : kExitDivergence;
  }

  std::printf("cs_syncd: %zu agents over %s (%zu events)%s\n",
              report.agents, report.transport.c_str(), report.dispatched,
              report.timed_out ? ", deadline hit" : "");
  if (report.byzantine)
    std::printf("  byzantine: %zu lying agent%s (%s); offline cross-check "
                "skipped\n",
                report.byz_liars, report.byz_liars == 1 ? "" : "s",
                config.byz.describe().c_str());
  if (config.drift.active())
    std::printf("  drift budget: rho %s, slack %s -> period %s, %zu "
                "epochs%s\n",
                text::format_double(config.drift.rho).c_str(),
                text::format_double(config.drift.slack).c_str(),
                text::format_double(report.resync_period.sec).c_str(),
                report.resync_epochs,
                report.resync_clamped ? " (clamped)" : "");
  for (const LiveEpochReport& ep : report.epochs) {
    if (!ep.claimed_precision.has_value()) {
      std::printf("  epoch %zu: not computed (%zu/%zu reports)\n", ep.epoch,
                  ep.reports_absorbed, report.agents);
      continue;
    }
    if (ep.detected) {
      std::printf("  epoch %zu: DETECTED — traffic inadmissible under the "
                  "declared assumptions; no corrections\n",
                  ep.epoch);
      continue;
    }
    std::string extra;
    if (ep.drift_bound)
      extra += " drift-bound " + text::format_double(*ep.drift_bound);
    if (ep.realized_intra && ep.realized_cross)
      extra += " intra " + text::format_double(*ep.realized_intra) +
               " cross " + text::format_double(*ep.realized_cross);
    if (ep.degraded) extra += " (degraded)";
    if (ep.offline_precision)
      extra += " offline " + text::format_double(*ep.offline_precision) +
               (ep.matches_offline ? " match" : " MISMATCH");
    std::printf("  epoch %zu: precision %s realized %s%s\n", ep.epoch,
                text::format_double(*ep.claimed_precision).c_str(),
                ep.realized_precision
                    ? text::format_double(*ep.realized_precision).c_str()
                    : "?",
                extra.c_str());
  }
  std::printf("%s\n", ok ? "converged"
                         : report.detected_epochs > 0
                               ? "DETECTED: inadmissible traffic"
                               : "NOT CONVERGED or mismatch");
  return ok ? kExitOk : kExitDivergence;
}

}  // namespace

int main(int argc, char** argv) {
  const auto given = [&](const char* word) {
    return std::any_of(argv + 1, argv + argc, [&](const char* arg) {
      return std::strcmp(arg, word) == 0;
    });
  };
  if (given("--help") || given("help")) {
    print_usage(stdout);
    return kExitOk;
  }
  if (given("--version")) {
    std::printf("%s\n", kVersionBanner);
    return kExitOk;
  }
  const std::string mode = given("--serve")   ? "--serve"
                           : given("--peers") ? "--peers"
                                              : "live";
  try {
    // Each mode accepts exactly the flags its code reads, so nothing on the
    // command line is silently ignored.
    struct Mode {
      int (*run)(const Args&);
      FlagSet flags;
    };
    const std::map<std::string, Mode> modes{
        {"--serve",
         {cmd_serve,
          {{"--listen", "--id", "--max-sessions", "--idle-timeout",
            "--serve-seconds"},
           {"--serve", "--json"}}}},
        {"--peers",
         {cmd_peers,
          {{"--seed", "--model", "--n", "--topology", "--lower", "--upper",
            "--warmup", "--spacing", "--rounds", "--report-at", "--leader",
            "--deadline", "--peers", "--id", "--listen", "--base",
            "--start-offset", "--offsets"},
           {"--json"}}}},
        {"live",
         {cmd_live,
          {{"--seed", "--model", "--n", "--topology", "--lower", "--upper",
            "--warmup", "--spacing", "--rounds", "--report-at", "--leader",
            "--deadline", "--skew", "--transport", "--delay-scale", "--drop",
            "--bind", "--trace", "--period", "--epochs", "--grace",
            "--drift-ppm", "--drift-slack", "--byz-plan", "--zones"},
           {"--json", "--no-check"}}}},
    };
    const Mode& m = modes.at(mode);
    const Args args(mode + " mode", argc - 1, argv + 1, m.flags);
    if (!args.positional().empty())
      usage_fail("unexpected argument '" + args.positional()[0] + "'");
    return m.run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "cs_syncd: usage error: %s\n", e.message.c_str());
    std::fprintf(stderr, "run 'cs_syncd --help' for the flag reference\n");
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs_syncd: error: %s\n", e.what());
    return kExitError;
  }
}
