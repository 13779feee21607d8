// End-to-end tests of the cs_syncd binary, the one live front end: each
// mode (live, --serve, --peers) accepts exactly the flags its code reads,
// numbers read with the trace reader's grammar, the live --json report
// has one schema (docs/RUNTIME.md §8) and parses as JSON, and the exit
// codes follow cs_sync's contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#ifndef CS_SYNCD_BIN
#error "CS_SYNCD_BIN must point at the cs_syncd executable"
#endif
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

RunResult run(const std::string& args, const char* binary = CS_SYNCD_BIN) {
  const std::string cmd = std::string(binary) + " " + args + " 2>&1";
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

/// The keys docs/RUNTIME.md §8 lists: every backquoted name in the first
/// column of its key tables.
std::vector<std::string> documented_keys() {
  std::ifstream doc(std::string(CS_TEST_DATA_DIR) + "/../../docs/RUNTIME.md");
  std::vector<std::string> keys;
  bool in_section = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind("## 8.", 0) == 0;
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::string column = line.substr(0, line.find(" |", 2));
    for (std::size_t open = column.find('`'); open != std::string::npos;) {
      const std::size_t close = column.find('`', open + 1);
      keys.push_back(column.substr(open + 1, close - open - 1));
      open = column.find('`', close + 1);
    }
  }
  return keys;
}

/// A bare inf or nan where a JSON value goes: no JSON parser accepts one.
bool has_bare_non_number(const std::string& json) {
  return std::regex_search(json, std::regex(R"([:\[,]\s*-?(inf|nan)\b)"));
}

TEST(CsSyncdCli, UnknownAndForeignFlagsExitTwo) {
  // Typos and flags of another mode are refused before any work; the
  // message names the flag and the mode.  The --serve and --peers rows
  // carry a short run time so a parser that let them through still ends.
  struct Case {
    std::string args, flag, mode;
  };
  const std::string serve = "--serve --serve-seconds 0.1";
  const std::string peers =
      "--peers 127.0.0.1:0,127.0.0.1:0 --id 0 --n 2 --deadline 0.2";
  const Case cases[] = {
      {"--n 4 --epochs 1 --epocs 3", "--epocs", "live"},
      {"--n 4 --epochs 1 --bogus-flag 7", "--bogus-flag", "live"},
      {"--n 4 --epochs 1 --listen 127.0.0.1:0", "--listen", "live"},
      // The live leader always roots at --leader and drops orphans, and
      // there is one APSP.
      {"--n 4 --epochs 1 --root 2", "--root", "live"},
      {"--n 4 --epochs 1 --match strict", "--match", "live"},
      {"--n 4 --epochs 1 --apsp johnson", "--apsp", "live"},
      {serve + " --epochs 3", "--epochs", "--serve"},
      {serve + " --byz-plan none", "--byz-plan", "--serve"},
      {serve + " --zones 2", "--zones", "--serve"},
      {serve + " --no-check", "--no-check", "--serve"},
      {peers + " --epochs 2", "--epochs", "--peers"},
      {peers + " --grace 1", "--grace", "--peers"},
  };
  for (const Case& c : cases) {
    const RunResult r = run(c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("'" + c.flag + "'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find(c.mode + " mode"), std::string::npos)
        << r.output;
  }
  EXPECT_EQ(run("--n 4 --epochs 1 stray").exit_code, 2);
}

TEST(CsSyncdCli, NumbersReadLikeTheTraceReader) {
  // Counts are unsigned decimal integers, and no flag takes NaN, hex or a
  // leading '+' (docs/TRACE.md §1): each is a usage error naming the flag.
  struct Case {
    std::string args, flag;
  };
  const Case cases[] = {
      {"--epochs 1.9", "--epochs"},
      {"--n 4.7", "--n"},
      {"--rounds 2.5", "--rounds"},
      {"--epochs 0x2", "--epochs"},
      {"--epochs -1", "--epochs"},
      {"--epochs 1 --skew nan", "--skew"},
      {"--epochs 1 --skew +0.1", "--skew"},
      {"--peers 127.0.0.1:0,127.0.0.1:0 --id 1.5 --n 2 --deadline 0.2",
       "--id"},
      // Ids past 32 bits, which once narrowed onto agent 0.
      {"--epochs 1 --leader 4294967296", "--leader"},
      {"--peers 127.0.0.1:0,127.0.0.1:0 --id 4294967296 --n 2 --deadline 0.2",
       "--id"},
  };
  for (const Case& c : cases) {
    const RunResult r = run("--n 4 " + c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("flag '" + c.flag + "'"), std::string::npos)
        << r.output;
  }
}

TEST(CsSyncdCli, UnboundedEpochPrintsInfinityAsAString) {
  // No probe rounds leave the epoch unbounded: the claimed precision and
  // the drift bound are +inf, printed as the string "inf".
  const RunResult r = run(
      "--n 4 --epochs 1 --rounds 0 --drift-ppm 100 --drift-slack 0.002 "
      "--json");
  EXPECT_NE(r.output.find("\"precision\": \"inf\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"drift_bound\": \"inf\""), std::string::npos)
      << r.output;
  EXPECT_FALSE(has_bare_non_number(r.output)) << r.output;
}

TEST(CsSyncdCli, LoopbackJsonCarriesEveryDocumentedKey) {
  // Zones and a drift budget switch on the optional per-epoch keys, so
  // this run carries every key docs/RUNTIME.md §8 lists.
  const RunResult r = run(
      "--n 6 --epochs 2 --zones 3 --drift-ppm 100 --drift-slack 0.01 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> keys = documented_keys();
  ASSERT_GE(keys.size(), 30u) << "docs/RUNTIME.md §8 key tables not found";
  for (const std::string& key : keys)
    EXPECT_NE(r.output.find("\"" + key + "\": "), std::string::npos) << key;
  EXPECT_FALSE(has_bare_non_number(r.output)) << r.output;
}

TEST(CsSyncdCli, DetectedEpochsExitOne) {
  // An equivocating agent makes every epoch a detection outage: a failure
  // exit, whatever else converged.
  const RunResult r = run(
      "--n 6 --lower 0.001 --upper 0.101 --byz-plan \"equivocate f=1 "
      "mag=0.05\" --report-at 0.3 --period 0.3 --warmup 0.05 --spacing 0.02 "
      "--json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"detected_epochs\": 2"), std::string::npos)
      << r.output;
  std::size_t detected = 0;
  for (std::size_t at = r.output.find("\"detected\": true");
       at != std::string::npos;
       at = r.output.find("\"detected\": true", at + 1))
    ++detected;
  EXPECT_EQ(detected, 2u) << r.output;
  EXPECT_FALSE(has_bare_non_number(r.output)) << r.output;
}

TEST(CsSyncdCli, LiveLoopbackConvergesAndMatchesOffline) {
  const RunResult r = run("--n 6 --epochs 2 --seed 4 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"converged\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"all_match\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"matches_offline\": true"), std::string::npos)
      << r.output;
}

TEST(CsSyncdCli, LiveRecordedTraceReplays) {
  const std::string trace_path = ::testing::TempDir() + "/cs_syncd.trace";
  const RunResult live = run("--n 4 --seed 8 --trace " + trace_path);
  ASSERT_EQ(live.exit_code, 0) << live.output;
  // The text report's offline column: each epoch matched bit-for-bit.
  EXPECT_NE(live.output.find(" match\n"), std::string::npos) << live.output;
  EXPECT_EQ(live.output.find("MISMATCH"), std::string::npos) << live.output;
  const RunResult rep = run("replay " + trace_path, CS_SYNC_BIN);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
}

TEST(CsSyncdCli, LiveRejectsBadTransport) {
  EXPECT_EQ(run("--transport carrier-pigeon").exit_code, 2);
}

TEST(CsSyncdCli, WindowedBiasModelIsRefused) {
  // Both agent modes send per-direction extremes, which cannot carry the
  // observation series a windowed-bias link's m̃ls needs: exit 3, naming
  // the link.
  const std::string model_path = ::testing::TempDir() + "/cs_syncd_wbias.model";
  {
    std::ofstream out(model_path);
    out << "chronosync-model v1\nprocessors 3\nlink 0 1 bounds 0 1\n"
           "link 0 2 bounds 0 1\nlink 1 2 wbias 0.01 0.5\n";
  }
  const RunResult live = run("--model " + model_path + " --epochs 1");
  EXPECT_EQ(live.exit_code, 3) << live.output;
  EXPECT_NE(live.output.find("link 1-2"), std::string::npos) << live.output;
  const RunResult peers =
      run("--peers 127.0.0.1:0,127.0.0.1:0,127.0.0.1:0 --id 1 --model " +
          model_path + " --deadline 0.2");
  EXPECT_EQ(peers.exit_code, 3) << peers.output;
  EXPECT_NE(peers.output.find("link 1-2"), std::string::npos) << peers.output;
}

TEST(CsSyncdCli, LiveRejectsNegativeGrace) {
  // A negative grace would silently disable the leader watchdog.
  const RunResult r = run("--n 4 --epochs 1 --grace -5");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("grace must be non-negative"), std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace cs
