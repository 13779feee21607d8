// End-to-end tests of the cs_syncd binary's command line: each mode
// (live, --serve, --peers) accepts exactly the flags its code reads, and
// schedule errors exit 3 like cs_sync's.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#ifndef CS_SYNCD_BIN
#error "CS_SYNCD_BIN must point at the cs_syncd executable"
#endif

namespace cs {
namespace {

struct RunResult {
  int exit_code{-1};
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(CS_SYNCD_BIN) + " " + args + " 2>&1";
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
