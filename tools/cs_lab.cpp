// cs_lab — the experiment-campaign driver.
//
//   cs_lab run <spec-file | --preset name> [flags]   expand + execute a
//       campaign across all cores, validate every instance against the
//       paper's claims, and emit JSON/CSV reports
//   cs_lab gen spec --preset <name> [--out file]     write a campaign spec
//   cs_lab gen topo "<family params>" [flags]        write a model file
//   cs_lab report <report.csv>                       re-render a CSV report
//
// Each subcommand accepts only the flags its code reads (a foreign flag is
// a usage error).  Every subcommand takes --help (exit 0); --version
// prints the release.
// Exit codes: 0 success, 1 validation failure (--check), 2 usage error,
// 3 runtime error.  See docs/LAB.md for the spec grammar, the seed
// derivation contract and the report schemas.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "io/views_io.hpp"
#include "lab/campaign.hpp"
#include "lab/stats.hpp"

#include "cli.hpp"

namespace {

using namespace cs;
using namespace cs::cli;
using namespace cs::lab;

constexpr int kExitOk = 0;
constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

void write_file_or_fail(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  if (!os) fail("cannot write " + path);
  os << body;
}

int cmd_run(const Args& args) {
  CampaignSpec spec;
  if (args.has("--preset")) {
    if (!args.positional().empty())
      usage_fail("run takes a spec file or --preset, not both");
    spec = preset_campaign(args.get("--preset"));
  } else {
    if (args.positional().size() != 1)
      usage_fail("usage: cs_lab run <spec-file | --preset name> [flags]");
    spec = load_campaign_file(args.positional()[0]);
  }
  if (args.has("--seed"))
    spec.seed = parse_u64_flag("--seed", args.get("--seed"));
  if (args.has("--seeds"))
    spec.seeds_per_cell = static_cast<std::uint32_t>(
        parse_u64_flag("--seeds", args.get("--seeds")));

  Metrics metrics;
  RunOptions options;
  options.threads = static_cast<std::size_t>(
      parse_u64_flag("--threads", args.get("--threads", "0")));
  options.task_threads = static_cast<std::size_t>(
      parse_u64_flag("--task-threads", args.get("--task-threads", "1")));
  if (options.task_threads == 0) options.task_threads = 1;
  options.metrics = &metrics;

  const bool timing = !args.on("--no-timing");
  const CampaignResult result = run_campaign(spec, options);
  const CampaignReport report = aggregate(result);

  if (!args.on("--quiet")) {
    print_report(std::cout, report, timing);
    if (timing)
      std::cout << "pool: " << metrics.counter("lab.pool.steals")
                << " steals across " << metrics.counter("lab.pool.threads")
                << " workers\n";
    // Surface the first few failures verbatim; the JSON only counts them.
    std::size_t shown = 0;
    for (std::size_t i = 0; i < result.results.size() && shown < 5; ++i)
      if (!result.results[i].ok) {
        std::cout << "task " << i << " failed: " << result.results[i].failure
                  << "\n";
        ++shown;
      }
  }

  if (args.has("--json")) {
    std::ostringstream os;
    write_report_json(os, report, timing);
    write_file_or_fail(args.get("--json"), os.str());
    if (!args.on("--quiet"))
      std::cout << "wrote " << args.get("--json") << "\n";
  }
  if (args.has("--csv")) {
    std::ostringstream os;
    write_report_csv(os, report);
    write_file_or_fail(args.get("--csv"), os.str());
    if (!args.on("--quiet")) std::cout << "wrote " << args.get("--csv") << "\n";
  }

  if (args.on("--check") && !report_ok(report)) {
    std::size_t byz_detected = 0;
    for (const CellStats& cell : report.cells) byz_detected += cell.byz_detected;
    std::cout << "check FAILED: failures=" << report.failures
              << " soundness_violations=" << report.soundness_violations
              << " byz_detection_outages=" << byz_detected
              << " thm46_max_gap=" << report.thm46_max_gap << " (tolerance "
              << kThm46Tolerance << ")\n";
    return kExitCheckFailed;
  }
  if (args.on("--check") && !args.on("--quiet"))
    std::cout << "check ok: every fault-free cell matches the Theorem 4.6 "
                 "bound within tolerance\n";
  return kExitOk;
}

int cmd_gen_spec(const Args& args) {
  if (!args.positional().empty())
    usage_fail("usage: cs_lab gen spec [--preset name] [--out FILE]");
  const CampaignSpec spec = preset_campaign(args.get("--preset", "smoke"));
  std::ostringstream os;
  save_campaign(os, spec);
  if (args.has("--out")) {
    write_file_or_fail(args.get("--out"), os.str());
    std::cout << "wrote " << args.get("--out") << "\n";
  } else {
    std::cout << os.str();
  }
  return kExitOk;
}

int cmd_gen_topo(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("usage: cs_lab gen topo \"<family params>\" [flags]");
  const TopoSpec topo_spec = parse_topo_spec(args.positional()[0]);
  Rng rng(parse_u64_flag("--seed", args.get("--seed", "1")));
  const Topology topo = make_topology(topo_spec, rng);
  SystemModel model(topo);
  MixSpec mix;
  // Default mix mirrors the smoke preset; --mix overrides with the
  // campaign-spec grammar, e.g. --mix "alternating 0.002 0.01 0.004".
  mix.kind = "bounds";
  mix.lb = 0.002;
  mix.ub = 0.01;
  if (args.has("--mix")) {
    // Reuse the campaign-spec parser for the mix grammar via a one-line
    // synthetic spec.
    std::istringstream is("chronosync-campaign v1\nseeds 1\ntopology ring 3\n"
                          "mix " + args.get("--mix") + "\n");
    mix = load_campaign(is).mixes.at(0);
  }
  apply_mix(model, mix);
  std::ostringstream os;
  save_model(os, model);
  if (args.has("--out")) {
    write_file_or_fail(args.get("--out"), os.str());
    std::cout << "wrote " << args.get("--out") << " (" << topo.node_count
              << " nodes, " << topo.link_count() << " links)\n";
  } else {
    std::cout << os.str();
  }
  return kExitOk;
}

int cmd_report(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("usage: cs_lab report <report.csv>");
  std::ifstream is(args.positional()[0]);
  if (!is) fail("cannot open " + args.positional()[0]);
  // Re-render the deterministic CSV as the usual fixed-width table.
  std::string line;
  if (!std::getline(is, line)) fail("empty report");
  const auto split = [](const std::string& row) {
    std::vector<std::string> cells;
    std::string cell;
    bool in_quotes = false;
    for (const char ch : row) {
      if (ch == '"') in_quotes = !in_quotes;
      else if (ch == ',' && !in_quotes) {
        cells.push_back(cell);
        cell.clear();
      } else cell += ch;
    }
    cells.push_back(cell);
    return cells;
  };
  Table table(split(line));
  std::size_t columns = split(line).size();
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells = split(line);
    if (cells.size() != columns) fail("malformed report row: " + line);
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  return kExitOk;
}

void print_usage(std::ostream& os) {
  os << "cs_lab " << kVersion << " — experiment-campaign engine\n\n"
     << "  cs_lab run <spec-file | --preset smoke|toroid|zones|fabric100k|\n"
     << "              drift|drift-noresync|byz|byz-quorum> [flags]\n"
     << "      --threads N    worker threads (0 = all cores)\n"
     << "      --task-threads N  threads *inside* each task (zoned solves;\n"
     << "                     byte-identical results for any value)\n"
     << "      --seed S       override the campaign master seed\n"
     << "      --seeds K      override runs per cell\n"
     << "      --json FILE    write the JSON report\n"
     << "      --csv FILE     write the per-cell CSV report\n"
     << "      --no-timing    omit wall-clock fields (byte-comparable runs)\n"
     << "      --check        exit 1 unless every fault-free cell matches\n"
     << "                     the Theorem 4.6 bound within tolerance\n"
     << "      --quiet        suppress stdout report\n"
     << "  cs_lab gen spec [--preset name] [--out FILE]\n"
     << "  cs_lab gen topo \"<family params>\" [--seed S] [--mix \"...\"]\n"
     << "                 [--out FILE]\n"
     << "  cs_lab report <report.csv>\n\n"
     << "A flag its subcommand does not read is a usage error (exit 2).\n"
     << "Topology families:";
  for (const std::string& f : topo_families()) os << ' ' << f;
  os << "\nSee docs/LAB.md for the campaign grammar and report schemas.\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --version and --help are requests, not flag errors: honor them
  // anywhere, before flag validation.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << "cs_lab " << kVersion << "\n";
      return kExitOk;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(std::cout);
      return kExitOk;
    }
  }
  if (argc < 2 || std::strcmp(argv[1], "help") == 0) {
    print_usage(std::cout);
    return kExitOk;
  }
  try {
    // Each subcommand accepts exactly the flags its code reads; `gen spec`
    // and `gen topo` are two subcommands.
    struct Subcommand {
      int (*run)(const Args&);
      FlagSet flags;
    };
    const std::map<std::string, Subcommand> subcommands{
        {"run",
         {cmd_run,
          {{"--preset", "--threads", "--task-threads", "--seed", "--seeds",
            "--json", "--csv"},
           {"--check", "--no-timing", "--quiet"}}}},
        {"gen spec", {cmd_gen_spec, {{"--preset", "--out"}, {}}}},
        {"gen topo", {cmd_gen_topo, {{"--seed", "--mix", "--out"}, {}}}},
        {"report", {cmd_report, {{}, {}}}},
    };
    std::string command = argv[1];
    int first = 2;
    if (command == "gen") {
      if (argc < 3) usage_fail("usage: cs_lab gen <spec|topo> ...");
      command += ' ';
      command += argv[2];
      first = 3;
    }
    const auto it = subcommands.find(command);
    if (it == subcommands.end())
      usage_fail("unknown subcommand '" + command + "'");
    return it->second.run(
        Args(command, argc - first, argv + first, it->second.flags));
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.message << "\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  } catch (const cs::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
}
