// Command-line plumbing shared by cs_sync and cs_lab: the usage-error type
// (both tools exit 2 on it) and a `--flag value` / `--switch` parser that
// checks every flag against the flag set of one subcommand.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cs::cli {

struct UsageError {
  std::string message;
};

[[noreturn]] inline void usage_fail(const std::string& message) {
  throw UsageError{message};
}

/// The flags one subcommand's code reads.
struct FlagSet {
  std::set<std::string> valued;
  std::set<std::string> switches;
};

/// Hand-rolled `--flag value` / `--switch` parser.  Flags may appear in any
/// order, interleaved with positionals; a flag outside the subcommand's
/// set is a usage error naming both, so no flag is silently ignored.
class Args {
 public:
  Args(const std::string& command, int argc, char** argv,
       const FlagSet& flags) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      if (flags.switches.count(arg) != 0) {
        set_switches_.insert(arg);
        continue;
      }
      if (flags.valued.count(arg) == 0)
        usage_fail("unknown flag '" + arg + "' for " + command);
      if (i + 1 >= argc) usage_fail("flag '" + arg + "' needs a value");
      values_[arg] = argv[++i];
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool on(const std::string& name) const {
    return set_switches_.count(name) != 0;
  }

  bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::set<std::string> set_switches_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

inline double parse_double_flag(const std::string& flag,
                                const std::string& text) {
  if (text == "inf") return std::numeric_limits<double>::infinity();
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    usage_fail("flag '" + flag + "': '" + text + "' is not a number");
  return v;
}

inline std::uint64_t parse_u64_flag(const std::string& flag,
                                    const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || text[0] == '-')
    usage_fail("flag '" + flag + "': '" + text +
               "' is not a non-negative integer");
  return v;
}

}  // namespace cs::cli
