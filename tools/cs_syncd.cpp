// cs_syncd — standalone clock-synchronization agent daemon.
//
// Launches n SyncAgent automata over a live transport (deterministic
// loopback, threaded loopback, or UDP over localhost), runs the §7
// probe → report → compute → disseminate protocol for the configured
// number of epochs, and prints the converged corrections plus the
// achieved precision.  The heavy lifting lives in src/runtime/daemon.cpp
// (run_live); this binary is flag parsing and reporting.
//
//   cs_syncd --n 8 --transport udp --epochs 2 --json
//
// Exit codes match cs_sync: 0 converged (and, unless --no-check, the
// deterministic-loopback corrections matched the offline pipeline),
// 1 not converged or live/offline mismatch, 2 usage error, 3 error.
#include <time.h>

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/version.hpp"
#include "core/zones.hpp"
#include "delaymodel/constraint.hpp"
#include "graph/topology.hpp"
#include "io/views_io.hpp"
#include "net/daemon.hpp"
#include "net/server.hpp"
#include "runtime/daemon.hpp"

namespace {

using namespace cs;

constexpr int kExitOk = 0;
constexpr int kExitDivergence = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

void print_usage(std::FILE* out) {
  std::fprintf(out, R"(cs_syncd — live clock-synchronization agent daemon

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
  --json                   machine-readable report
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

exit codes: 0 ok, 1 not converged / mismatch, 2 usage error, 3 error
)");
}

double num_flag(const std::string& name, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "cs_syncd: %s expects a number, got '%s'\n",
                 name.c_str(), value.c_str());
    std::exit(kExitUsage);
  }
  return v;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

double realtime_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

using FlagGet =
    std::function<std::string(const std::string&, const std::string&)>;

/// --serve: the multi-client echo daemon (net::SyncServer) on --listen.
int run_serve(const std::map<std::string, std::string>& flags,
              const FlagGet& get) {
  net::SyncServerConfig config;
  config.listen = net::parse_hostport(get("--listen", "127.0.0.1:0"));
  config.agent = static_cast<ProcessorId>(num_flag("--id", get("--id", "0")));
  config.session.max_sessions = static_cast<std::size_t>(
      num_flag("--max-sessions", get("--max-sessions", "100000")));
  config.session.idle_timeout =
      Duration{num_flag("--idle-timeout", get("--idle-timeout", "30"))};
  net::SyncServer server(config);

  const double serve_seconds =
      num_flag("--serve-seconds", get("--serve-seconds", "0"));
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr, "cs_syncd: serving chronosync-wire v1 on %s\n",
               net::to_string(server.local_address()).c_str());
  const double until =
      serve_seconds > 0.0 ? realtime_now() + serve_seconds : 0.0;
  while (g_stop == 0 && (until == 0.0 || realtime_now() < until))
    server.step(100);

  if (flags.count("--json") != 0) {
    std::string out = "{\"mode\": \"serve\"";
    out += ", \"listen\": \"" + net::to_string(server.local_address()) + "\"";
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
int run_multihost(const std::map<std::string, std::string>& flags,
                  const FlagGet& get, const SystemModel& model) {
  net::NetDaemonConfig config;
  config.model = &model;
  config.id = static_cast<ProcessorId>(num_flag("--id", get("--id", "0")));
  config.leader =
      static_cast<ProcessorId>(num_flag("--leader", get("--leader", "0")));
  for (const std::string& part : split_csv(flags.at("--peers")))
    config.peers.push_back(net::parse_hostport(part));
  if (flags.count("--listen") != 0 && config.id < config.peers.size())
    config.peers[config.id] = net::parse_hostport(flags.at("--listen"));

  // Shared schedule origin: every daemon of the run must use the same
  // value.  The default only works when all daemons launch within the
  // same second — scripts pass --base explicitly.
  config.base = num_flag(
      "--base",
      get("--base", text::format_double(std::floor(realtime_now()) + 2.0)));
  config.start_offset =
      Duration{num_flag("--start-offset", get("--start-offset", "0"))};
  config.warmup = Duration{num_flag("--warmup", get("--warmup", "0.3"))};
  config.spacing = Duration{num_flag("--spacing", get("--spacing", "0.05"))};
  config.rounds =
      static_cast<std::size_t>(num_flag("--rounds", get("--rounds", "6")));
  config.report_at =
      Duration{num_flag("--report-at", get("--report-at", "1.2"))};
  config.deadline =
      Duration{num_flag("--deadline", get("--deadline", "15"))};

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
    if (flags.count("--offsets") != 0) {
      std::vector<double> offsets;
      for (const std::string& part : split_csv(flags.at("--offsets")))
        offsets.push_back(num_flag("--offsets", part));
      if (offsets.size() != report.corrections.size()) {
        std::fprintf(stderr, "cs_syncd: --offsets wants one value per agent\n");
        return kExitUsage;
      }
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

  if (flags.count("--json") != 0) {
    std::string out = "{\"mode\": \"multihost\"";
    out += ", \"id\": " + std::to_string(config.id);
    out += ", \"leader\": " + std::to_string(config.leader);
    out += ", \"converged\": ";
    out += report.converged ? "true" : "false";
    if (is_leader) {
      out += ", \"computed\": ";
      out += report.computed ? "true" : "false";
    }
    if (report.detected) out += ", \"detected\": true";
    if (report.window_violation) out += ", \"window_violation\": true";
    if (report.converged) {
      out += ", \"precision\": " + text::format_double(report.precision);
      out += ", \"corrections\": [";
      for (std::size_t p = 0; p < report.corrections.size(); ++p) {
        if (p > 0) out += ", ";
        text::append_double(out, report.corrections[p]);
      }
      out += "]";
    }
    if (realized) out += ", \"realized\": " + text::format_double(*realized);
    out += ", \"probes_sent\": " + std::to_string(report.probes_sent);
    out += ", \"observations\": " +
           std::to_string(report.probe_obs + report.echo_obs);
    out += ", \"ambiguous_dropped\": " +
           std::to_string(report.ambiguous_dropped);
    out += ", \"extremes\": [";
    for (std::size_t i = 0; i < report.collected.size(); ++i) {
      const net::ReportedExtremes& r = report.collected[i];
      if (i > 0) out += ", ";
      out += "{\"agent\": " + std::to_string(r.agent) + ", \"dirs\": [";
      for (std::size_t j = 0; j < r.dirs.size(); ++j) {
        const net::DirectionExtremes& d = r.dirs[j];
        if (j > 0) out += ", ";
        out += "[" + std::to_string(d.peer) + ", " +
               text::format_double(d.dmin) + ", " +
               text::format_double(d.dmax) + ", " + std::to_string(d.count) +
               "]";
      }
      out += "]}";
    }
    out += "]";
    if (!realized_note.empty()) out += ", \"error\": \"" + realized_note + "\"";
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

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "help") {
      print_usage(stdout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::printf("%s\n", kVersionBanner);
      return kExitOk;
    }
    if (arg == "--json" || arg == "--no-check" || arg == "--serve") {
      flags[arg] = "1";
      continue;
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "cs_syncd: unknown or valueless flag '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return kExitUsage;
    }
    flags[arg] = argv[++i];
  }

  // Each mode accepts exactly the flags its code reads, so nothing on the
  // command line is silently ignored.
  const std::string mode = flags.count("--serve") != 0   ? "--serve"
                           : flags.count("--peers") != 0 ? "--peers"
                                                         : "live";
  std::set<std::string> accepted{"--json"};
  if (mode == "--serve") {
    accepted.insert({"--serve", "--listen", "--id", "--max-sessions",
                     "--idle-timeout", "--serve-seconds"});
  } else {
    // Both agent modes build the model and run the probe schedule.
    accepted.insert({"--seed", "--model", "--n", "--topology", "--lower",
                     "--upper", "--warmup", "--spacing", "--rounds",
                     "--report-at", "--leader", "--deadline"});
    if (mode == "--peers")
      accepted.insert({"--peers", "--id", "--listen", "--base",
                       "--start-offset", "--offsets"});
    else
      accepted.insert({"--skew", "--transport", "--delay-scale", "--drop",
                       "--bind", "--trace", "--no-check", "--period",
                       "--epochs", "--grace", "--drift-ppm", "--drift-slack",
                       "--byz-plan", "--zones"});
  }
  for (const auto& flag : flags) {
    if (accepted.count(flag.first) != 0) continue;
    std::fprintf(stderr, "cs_syncd: unknown flag '%s' for %s mode\n",
                 flag.first.c_str(), mode.c_str());
    print_usage(stderr);
    return kExitUsage;
  }
  const auto get = [&](const std::string& name, const std::string& fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };

  try {
    if (flags.count("--serve") != 0) return run_serve(flags, get);

    const auto seed =
        static_cast<std::uint64_t>(num_flag("--seed", get("--seed", "1")));
    Rng rng(seed);
    SystemModel model = [&] {
      if (flags.count("--model") != 0)
        return load_model_file(flags.at("--model"));
      const auto n = static_cast<std::size_t>(
          num_flag("--n", get("--n", "8")));
      SystemModel m(make_named(get("--topology", "complete"), n, rng));
      const double lower = num_flag("--lower", get("--lower", "0"));
      const double upper = num_flag("--upper", get("--upper", "1"));
      for (auto [a, b] : m.topology().links)
        m.set_constraint(make_bounds(a, b, lower, upper));
      return m;
    }();

    if (flags.count("--peers") != 0) return run_multihost(flags, get, model);

    LiveConfig config;
    config.seed = seed;
    config.skew = num_flag("--skew", get("--skew", "0.05"));
    const std::string transport = get("--transport", "loopback");
    if (transport == "loopback") {
      config.transport = LiveTransportKind::kLoopback;
    } else if (transport == "loopback-threaded") {
      config.transport = LiveTransportKind::kLoopbackThreaded;
    } else if (transport == "udp") {
      config.transport = LiveTransportKind::kUdp;
    } else {
      std::fprintf(stderr, "cs_syncd: unknown transport '%s'\n",
                   transport.c_str());
      return kExitUsage;
    }
    config.delay_scale =
        num_flag("--delay-scale", get("--delay-scale", "0.01"));
    config.drop_probability = num_flag("--drop", get("--drop", "0"));
    config.udp.bind_address = get("--bind", "127.0.0.1");
    config.trace_path = get("--trace", "");
    config.offline_check = flags.count("--no-check") == 0;
    config.deadline = Duration{num_flag("--deadline", get("--deadline", "30"))};
    config.agent.warmup = Duration{num_flag("--warmup", get("--warmup", "0.2"))};
    config.agent.spacing =
        Duration{num_flag("--spacing", get("--spacing", "0.05"))};
    config.agent.rounds =
        static_cast<std::size_t>(num_flag("--rounds", get("--rounds", "4")));
    config.agent.report_at =
        Duration{num_flag("--report-at", get("--report-at", "1"))};
    config.agent.period = Duration{num_flag("--period", get("--period", "1"))};
    config.agent.epochs =
        static_cast<std::size_t>(num_flag("--epochs", get("--epochs", "2")));
    config.agent.grace = Duration{num_flag("--grace", get("--grace", "0"))};
    config.agent.leader =
        static_cast<ProcessorId>(num_flag("--leader", get("--leader", "0")));
    config.drift.rho =
        num_flag("--drift-ppm", get("--drift-ppm", "0")) * 1e-6;
    config.drift.slack =
        num_flag("--drift-slack", get("--drift-slack", "0"));
    if ((config.drift.rho > 0.0) != (config.drift.slack > 0.0)) {
      std::fprintf(stderr,
                   "cs_syncd: --drift-ppm and --drift-slack go together\n");
      return kExitUsage;
    }
    if (flags.count("--byz-plan") != 0)
      config.byz = byz::parse_byz_plan(flags.at("--byz-plan"));

    std::optional<ZonePlan> zone_plan;
    if (flags.count("--zones") != 0) {
      const auto target = static_cast<std::size_t>(
          num_flag("--zones", flags.at("--zones")));
      if (target == 0) {
        std::fprintf(stderr, "cs_syncd: --zones expects a size >= 1\n");
        return kExitUsage;
      }
      zone_plan = greedy_bfs_zones(model.topology(), target);
      config.zones = &*zone_plan;
    }

    const LiveReport report = run_live(model, config);
    // A detected epoch is a synchronization outage: the leader rejected the
    // traffic as inadmissible (wrong bounds or a lying agent) and computed
    // no corrections.  That is a failure exit, same as the lab's --check.
    const bool ok = report.converged && report.detected_epochs == 0 &&
                    (!report.checked || report.all_match);

    if (flags.count("--json") != 0) {
      std::string out = "{\"transport\": \"" + report.transport + "\"";
      out += ", \"agents\": " + std::to_string(report.agents);
      out += ", \"converged\": ";
      out += report.converged ? "true" : "false";
      out += ", \"all_match\": ";
      out += report.checked ? (report.all_match ? "true" : "false") : "null";
      if (report.byzantine) {
        out += ", \"byzantine\": true, \"byz_liars\": " +
               std::to_string(report.byz_liars);
      }
      if (report.detected_epochs > 0)
        out += ", \"detected_epochs\": " +
               std::to_string(report.detected_epochs);
      if (config.drift.active()) {
        out += ", \"resync_period\": " +
               text::format_double(report.resync_period.sec);
        out += ", \"resync_epochs\": " + std::to_string(report.resync_epochs);
        out += ", \"resync_clamped\": ";
        out += report.resync_clamped ? "true" : "false";
      }
      out += ", \"epochs\": [";
      for (std::size_t k = 0; k < report.epochs.size(); ++k) {
        const LiveEpochReport& ep = report.epochs[k];
        if (k > 0) out += ", ";
        out += "{\"epoch\": " + std::to_string(ep.epoch);
        out += ", \"degraded\": ";
        out += ep.degraded ? "true" : "false";
        if (ep.detected) out += ", \"detected\": true";
        if (ep.claimed_precision && std::isfinite(*ep.claimed_precision))
          out += ", \"precision\": " +
                 text::format_double(*ep.claimed_precision);
        if (ep.drift_bound)
          out += ", \"drift_bound\": " + text::format_double(*ep.drift_bound);
        if (ep.realized_precision)
          out += ", \"realized\": " +
                 text::format_double(*ep.realized_precision);
        if (ep.realized_intra)
          out += ", \"realized_intra\": " +
                 text::format_double(*ep.realized_intra);
        if (ep.realized_cross)
          out += ", \"realized_cross\": " +
                 text::format_double(*ep.realized_cross);
        out += ", \"corrections\": [";
        for (std::size_t p = 0; p < ep.corrections.size(); ++p) {
          if (p > 0) out += ", ";
          text::append_double(out, ep.corrections[p]);
        }
        out += "]}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
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
      std::string split;
      if (ep.drift_bound)
        split += " drift-bound " + text::format_double(*ep.drift_bound);
      if (ep.realized_intra && ep.realized_cross)
        split += " intra " + text::format_double(*ep.realized_intra) +
                 " cross " + text::format_double(*ep.realized_cross);
      std::printf("  epoch %zu: precision %s realized %s%s%s%s\n", ep.epoch,
                  text::format_double(*ep.claimed_precision).c_str(),
                  ep.realized_precision
                      ? text::format_double(*ep.realized_precision).c_str()
                      : "?",
                  split.c_str(), ep.degraded ? " (degraded)" : "",
                  report.checked
                      ? (ep.matches_offline ? " [offline match]"
                                            : " [OFFLINE MISMATCH]")
                      : "");
    }
    std::printf("%s\n", ok ? "converged"
                           : report.detected_epochs > 0
                                 ? "DETECTED: inadmissible traffic"
                                 : "NOT CONVERGED or mismatch");
    return ok ? kExitOk : kExitDivergence;
  } catch (const Error& e) {
    std::fprintf(stderr, "cs_syncd: error: %s\n", e.what());
    return kExitError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs_syncd: error: %s\n", e.what());
    return kExitError;
  }
}
