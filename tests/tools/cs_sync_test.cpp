// End-to-end tests of the cs_sync binary: the CLI must agree bit-for-bit
// with the in-process library on the same inputs, and its exit codes must
// follow the documented contract (0 ok, 1 divergence, 2 usage, 3 error).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/synchronizer.hpp"
#include "io/views_io.hpp"
#include "support/builders.hpp"

#ifndef CS_SYNC_BIN
#error "CS_SYNC_BIN must point at the cs_sync executable"
#endif
#ifndef CS_TEST_DATA_DIR
#error "CS_TEST_DATA_DIR must point at tests/data"
#endif

namespace cs {
namespace {

struct RunResult {
  int exit_code{-1};
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(CS_SYNC_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string golden(const std::string& name) {
  return std::string(CS_TEST_DATA_DIR) + "/" + name;
}

TEST(CsSyncCli, SyncMatchesInProcessBitForBit) {
  // The acceptance round-trip: save views + model to disk, run the binary,
  // parse its corrections back, and compare against synchronize() exactly.
  SystemModel model = test::bounded_model(make_complete(4), 0.005, 0.03);
  const SimResult sim = test::run_ping_pong(model, 11, 0.2);
  const std::vector<View> views = sim.execution.views();

  const std::string dir = ::testing::TempDir();
  const std::string views_path = dir + "/cs_sync_test.views";
  const std::string model_path = dir + "/cs_sync_test.model";
  save_views_file(views_path, views);
  save_model_file(model_path, model);

  const RunResult r = run("sync " + views_path + " " + model_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const SyncOutcome expected = synchronize(model, views);

  std::vector<double> cli_corrections(4, 0.0);
  double cli_precision = -1.0;
  std::size_t seen = 0;
  std::istringstream lines(r.output);
  std::string line;
  while (std::getline(lines, line)) {
    unsigned pid = 0;
    char val[64];
    if (std::sscanf(line.c_str(), "correction %u %63s", &pid, val) == 2) {
      ASSERT_LT(pid, 4u);
      cli_corrections[pid] = std::strtod(val, nullptr);
      ++seen;
    } else if (std::sscanf(line.c_str(), "precision %63s", val) == 1) {
      cli_precision = std::strtod(val, nullptr);
    }
  }
  ASSERT_EQ(seen, 4u) << r.output;
  // %.17g round-trips doubles exactly: bitwise equality, not tolerance.
  EXPECT_EQ(cli_precision, expected.optimal_precision.value());
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_EQ(cli_corrections[p], expected.corrections[p]) << "pid " << p;
}

TEST(CsSyncCli, ReplayGoldenSucceeds) {
  const RunResult r = run("replay " + golden("golden_clean.trace"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replay matches the recording"),
            std::string::npos)
      << r.output;
}

TEST(CsSyncCli, ReplayJsonReportsMatch) {
  const RunResult r =
      run("replay " + golden("golden_faulty.trace") + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"match\": true"), std::string::npos) << r.output;
}

TEST(CsSyncCli, DiffIdenticalTracesExitsZero) {
  const std::string path = golden("golden_clean.trace");
  const RunResult r = run("diff " + path + " " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CsSyncCli, DiffDifferentTracesExitsOne) {
  const RunResult r = run("diff " + golden("golden_clean.trace") + " " +
                          golden("golden_faulty.trace"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("diff:"), std::string::npos) << r.output;
}

TEST(CsSyncCli, RecordReplayRoundTripInTempDir) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/cs_sync_test.trace";
  const RunResult rec =
      run("simulate " + trace_path + " --seed 9 --skew 0.1 --n 4");
  ASSERT_EQ(rec.exit_code, 0) << rec.output;

  const RunResult rep = run("replay " + trace_path);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;

  // Re-record the replayed outcomes; a clean replay must diff clean.
  const std::string again = dir + "/cs_sync_test2.trace";
  const RunResult rer =
      run("replay " + trace_path + " --rerecord " + again);
  ASSERT_EQ(rer.exit_code, 0) << rer.output;
  const RunResult diff = run("diff " + trace_path + " " + again);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
}

TEST(CsSyncCli, MetricsJsonIsWellFormedEnough) {
  const RunResult r =
      run("metrics " + golden("golden_faulty.trace") + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"tallies\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"counters\""), std::string::npos) << r.output;
}

TEST(CsSyncCli, ExitCodeContract) {
  EXPECT_EQ(run("frobnicate").exit_code, 2);           // unknown subcommand
  // Live agents run under cs_syncd, the one live front end.
  const RunResult live = run("live --n 4 --epochs 1");
  EXPECT_EQ(live.exit_code, 2) << live.output;
  EXPECT_NE(live.output.find("unknown subcommand 'live'"), std::string::npos)
      << live.output;
  EXPECT_EQ(run("sync only_one_arg").exit_code, 2);    // wrong arity
  EXPECT_EQ(run("replay /nonexistent.trace").exit_code, 3);  // runtime error
  EXPECT_EQ(run("help").exit_code, 0);
  {
    // A root past 32 bits is a usage error; one past the processor count
    // but below 2^32 stays a runtime error.
    SystemModel model = test::bounded_model(make_complete(4), 0.005, 0.03);
    const std::string dir = ::testing::TempDir();
    const std::string views_path = dir + "/cs_sync_root.views";
    const std::string model_path = dir + "/cs_sync_root.model";
    save_views_file(views_path,
                    test::run_ping_pong(model, 11, 0.2).execution.views());
    save_model_file(model_path, model);
    const std::string sync = "sync " + views_path + " " + model_path;
    const RunResult big = run(sync + " --root 4294967296");
    EXPECT_EQ(big.exit_code, 2) << big.output;
    EXPECT_NE(big.output.find("flag '--root'"), std::string::npos)
        << big.output;
    EXPECT_EQ(run(sync + " --root 4").exit_code, 3);
  }
  // Topology sizes are checked in every build: ring 0 once crashed a
  // Release build, and ring 2 recorded its one link twice.
  const std::string out = ::testing::TempDir() + "/cs_sync_bad_size.trace";
  const std::pair<const char*, const char*> sizes[] = {
      {"--topology ring --n 0", "ring needs n >= 3, got n = 0"},
      {"--topology ring --n 2", "ring needs n >= 3, got n = 2"},
      {"--topology wan --n 2", "wan needs 3 <= hubs <= n"},
      {"--topology star --n 1", "star needs n >= 2, got n = 1"}};
  for (const auto& [args, why] : sizes) {
    const RunResult r = run("simulate " + out + " " + args);
    EXPECT_EQ(r.exit_code, 3) << args << ": " << r.output;
    EXPECT_NE(r.output.find(why), std::string::npos) << r.output;
  }
}

TEST(CsSyncCli, CycleMeanFlagIsUnknown) {
  // SHIFTS has one algorithm; the flag that chose between two is gone and
  // is refused like any unknown flag, before any work is done.
  const std::string trace = golden("golden_clean.trace");
  for (const char* value : {"karp", "howard"}) {
    const RunResult r =
        run("replay " + trace + " --cycle-mean " + std::string(value));
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("unknown flag '--cycle-mean'"), std::string::npos)
        << r.output;
  }
}

TEST(CsSyncCli, VersionPrintsBannerAndExitsZero) {
  for (const char* spelling : {"--version", "version"}) {
    const RunResult r = run(spelling);
    EXPECT_EQ(r.exit_code, 0) << spelling;
    EXPECT_NE(r.output.find("chronosync"), std::string::npos) << r.output;
    // A version number, not just a name.
    EXPECT_NE(r.output.find_first_of("0123456789"), std::string::npos);
  }
}

TEST(CsSyncCli, HelpAfterAnySubcommandExitsZero) {
  // `cs_sync <sub> --help` is a documentation request, not a flag error:
  // exit 0 with the usage text on stdout, uniformly across subcommands.
  for (const char* sub :
       {"simulate", "sync", "replay", "diff", "metrics"}) {
    const RunResult r = run(std::string(sub) + " --help");
    EXPECT_EQ(r.exit_code, 0) << sub << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << sub;
  }
}

TEST(CsSyncCli, SubcommandsRefuseFlagsTheyIgnore) {
  // Every flag a subcommand accepts is one its code reads: a flag another
  // subcommand reads is refused before any work, naming flag and command.
  const std::string trace = golden("golden_clean.trace");
  const std::string out = ::testing::TempDir() + "/cs_sync_refused.trace";
  struct Case {
    std::string sub, args, flag;
  };
  const Case cases[] = {
      // replay, diff and metrics rerun the trace's recorded plan.
      {"replay", trace + " --apsp floyd-warshall", "--apsp"},
      {"replay", trace + " --root 3", "--root"},
      {"replay", trace + " --match drop-orphans", "--match"},
      {"metrics", trace + " --rebuild", "--rebuild"},
      {"metrics", trace + " --topology star", "--topology"},
      {"metrics", trace + " --n 99", "--n"},
      {"diff", trace + " " + trace + " --grace 5", "--grace"},
      {"diff", trace + " " + trace + " --leader 9", "--leader"},
      {"sync", "a.views b.model --seed 3", "--seed"},
      {"simulate", out + " --rerecord " + out, "--rerecord"},
      // One epoch driver and one APSP: no subcommand reads either choice.
      {"simulate", out + " --rebuild", "--rebuild"},
      {"simulate", out + " --apsp johnson", "--apsp"},
      {"sync", "a.views b.model --apsp johnson", "--apsp"},
  };
  for (const Case& c : cases) {
    const RunResult r = run(c.sub + " " + c.args);
    EXPECT_EQ(r.exit_code, 2) << c.sub << " " << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("'" + c.flag + "'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("for " + c.sub), std::string::npos) << r.output;
  }
}

}  // namespace
}  // namespace cs
