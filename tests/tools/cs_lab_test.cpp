// End-to-end tests of the cs_lab binary: exit-code contract (0 ok,
// 1 check failure, 2 usage, 3 error), spec generation round-trips, and the
// headline determinism regression — the aggregated JSON and CSV of a
// campaign must be byte-identical for --threads 1 and --threads 4.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "io/views_io.hpp"
#include "lab/spec.hpp"

#ifndef CS_LAB_BIN
#error "CS_LAB_BIN must point at the cs_lab executable"
#endif

namespace cs::lab {
namespace {

struct RunResult {
  int exit_code{-1};
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(CS_LAB_BIN) + " " + args + " 2>&1";
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

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/cs_lab_" + name;
}

TEST(CsLabCli, VersionAndHelpExitZero) {
  EXPECT_EQ(run("--version").exit_code, 0);
  const RunResult help = run("--help");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.output.find("cs_lab run"), std::string::npos);
}

TEST(CsLabCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run("frobnicate").exit_code, 2);
  EXPECT_EQ(run("run").exit_code, 2);
  EXPECT_EQ(run("run --bogus-flag x").exit_code, 2);
  EXPECT_EQ(run("gen").exit_code, 2);
}

TEST(CsLabCli, SubcommandsRefuseFlagsTheyIgnore) {
  // Every flag a subcommand accepts is one its code reads: a flag another
  // subcommand reads is refused before any work, naming flag and command.
  const std::string out = tmp("refused.out");
  struct Case {
    std::string sub, args, flag;
  };
  const Case cases[] = {
      {"gen spec", "--preset smoke --threads 3", "--threads"},
      {"gen spec", "--preset smoke --seed 4", "--seed"},
      {"gen topo", "\"ring 5\" --task-threads 9 --json " + out,
       "--task-threads"},
      {"gen topo", "\"ring 5\" --preset smoke", "--preset"},
      {"gen topo", "\"ring 5\" --quiet", "--quiet"},
      {"run", "--preset smoke --out " + out, "--out"},
      {"run", "--preset smoke --mix \"bounds 0.002 0.01\"", "--mix"},
      {"report", out + " --json " + out, "--json"},
      {"report", out + " --check", "--check"},
  };
  for (const Case& c : cases) {
    const RunResult r = run(c.sub + " " + c.args);
    EXPECT_EQ(r.exit_code, 2) << c.sub << " " << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("unknown flag '" + c.flag + "' for " + c.sub),
              std::string::npos)
        << r.output;
  }
  std::ifstream is(out);
  EXPECT_FALSE(is.good()) << "a refused command wrote " << out;
}

TEST(CsLabCli, RuntimeErrorsExitThree) {
  EXPECT_EQ(run("run /nonexistent/campaign.spec").exit_code, 3);
  EXPECT_EQ(run("run --preset no-such-preset").exit_code, 3);
  EXPECT_EQ(run("report /nonexistent/report.csv").exit_code, 3);
  // Generator sizes are checked in every build (a Release build once wrote
  // `link 0 4294967295` for ring 0 and never returned for wan 2).
  const std::pair<const char*, const char*> sizes[] = {
      {"ring 0", "ring needs n >= 3, got n = 0"},
      {"ring 2", "ring needs n >= 3, got n = 2"},
      {"wan 2", "wan needs 3 <= hubs <= n, got 3 hubs for n = 2"},
      {"circulant 3", "circulant stride 3 is outside [1, n) for n = 3"}};
  for (const auto& [spec, why] : sizes) {
    const RunResult r = run("gen topo \"" + std::string(spec) + "\"");
    EXPECT_EQ(r.exit_code, 3) << spec << ": " << r.output;
    EXPECT_NE(r.output.find(why), std::string::npos) << r.output;
  }
}

TEST(CsLabCli, GenSpecRoundTripsThroughRun) {
  const std::string spec_path = tmp("roundtrip.spec");
  ASSERT_EQ(run("gen spec --preset smoke --out " + spec_path).exit_code, 0);
  const CampaignSpec spec = load_campaign_file(spec_path);
  EXPECT_EQ(spec.name, "smoke");
  EXPECT_EQ(spec.seed, 2026u);
}

TEST(CsLabCli, GenTopoEmitsALoadableModel) {
  const std::string model_path = tmp("toroid.model");
  ASSERT_EQ(
      run("gen topo \"toroid 3x3\" --seed 5 --out " + model_path).exit_code,
      0);
  const SystemModel model = load_model_file(model_path);
  EXPECT_EQ(model.processor_count(), 9u);
  EXPECT_EQ(model.topology().link_count(), 18u);
}

TEST(CsLabCli, ThreadCountDoesNotChangeTheReportBytes) {
  // The acceptance regression: a multi-cell campaign (with a faulty arm)
  // run serially and with 4 workers must emit byte-identical --no-timing
  // JSON and CSV reports.
  const std::string spec_path = tmp("det.spec");
  std::ofstream os(spec_path);
  os << "chronosync-campaign v1\n"
        "name det\nseed 17\nseeds 2\nprotocol pingpong 3\n"
        "skew 0.2\ndelay-scale 0.05\n"
        "topology ring 5\ntopology toroid 3x3\n"
        "mix bounds 0.002 0.008\nfaults none\nfaults drop 0.2\n";
  os.close();

  const std::string j1 = tmp("det_t1.json"), c1 = tmp("det_t1.csv");
  const std::string j4 = tmp("det_t4.json"), c4 = tmp("det_t4.csv");
  ASSERT_EQ(run("run " + spec_path + " --threads 1 --no-timing --quiet"
                " --json " + j1 + " --csv " + c1).exit_code, 0);
  ASSERT_EQ(run("run " + spec_path + " --threads 4 --no-timing --quiet"
                " --json " + j4 + " --csv " + c4).exit_code, 0);
  EXPECT_EQ(slurp(j1), slurp(j4));
  EXPECT_EQ(slurp(c1), slurp(c4));
  EXPECT_NE(slurp(j1).find("\"tool\": \"cs_lab\""), std::string::npos);
}

TEST(CsLabCli, ZoneCampaignReportBytesSurviveAnyThreadSplit) {
  // Same determinism contract for the zones axis: campaign-level workers
  // (--threads) and intra-task zone solvers (--task-threads) must both be
  // invisible in the --no-timing reports.
  const std::string spec_path = tmp("zones.spec");
  std::ofstream os(spec_path);
  os << "chronosync-campaign v1\n"
        "name zonedet\nseed 31\nseeds 2\nprotocol pingpong 3\n"
        "skew 0.2\ndelay-scale 0.05\n"
        "topology dc 2 3 4\ntopology ba 18 2\n"
        "mix bounds 0.002 0.008\nfaults none\n"
        "zones none\nzones natural\nzones size 6\n";
  os.close();

  const std::string j1 = tmp("zones_t1.json"), c1 = tmp("zones_t1.csv");
  const std::string j4 = tmp("zones_t4.json"), c4 = tmp("zones_t4.csv");
  ASSERT_EQ(run("run " + spec_path + " --threads 1 --task-threads 1"
                " --no-timing --quiet --check --json " + j1 +
                " --csv " + c1).exit_code, 0);
  ASSERT_EQ(run("run " + spec_path + " --threads 4 --task-threads 4"
                " --no-timing --quiet --check --json " + j4 +
                " --csv " + c4).exit_code, 0);
  EXPECT_EQ(slurp(j1), slurp(j4));
  EXPECT_EQ(slurp(c1), slurp(c4));
  EXPECT_NE(slurp(j1).find("\"zones\": \"natural\""), std::string::npos);
  EXPECT_NE(slurp(c1).find(",zones,"), std::string::npos);
}

TEST(CsLabCli, CheckPassesOnTheZonesPreset) {
  const RunResult r =
      run("run --preset zones --seeds 1 --threads 2 --check --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CsLabCli, CheckPassesOnTheSmokePreset) {
  const RunResult r =
      run("run --preset smoke --seeds 1 --threads 2 --check --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CsLabCli, ReportRendersTheCsv) {
  const std::string spec_path = tmp("report.spec");
  std::ofstream os(spec_path);
  os << "chronosync-campaign v1\n"
        "name report\nseed 3\nseeds 1\nprotocol pingpong 2\n"
        "topology ring 4\nmix bounds 0.002 0.008\nfaults none\n";
  os.close();
  const std::string csv = tmp("report.csv");
  ASSERT_EQ(run("run " + spec_path + " --quiet --csv " + csv).exit_code, 0);
  const RunResult r = run("report " + csv);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("ring 4"), std::string::npos);
  EXPECT_NE(r.output.find("thm46_max_gap"), std::string::npos);
}

}  // namespace
}  // namespace cs::lab
