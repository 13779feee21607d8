// Command-line plumbing shared by cs_sync, cs_syncd and cs_lab: the
// usage-error type (every tool exits 2 on it), a `--flag value` / `--switch`
// parser that checks every flag against the flag set of one subcommand or
// mode, number flags read with the formats' one number grammar
// (docs/TRACE.md §1), the model flags, and the writers of the --json
// reports.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "delaymodel/constraint.hpp"
#include "graph/topology.hpp"
#include "io/views_io.hpp"

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
  const std::optional<double> v = text::parse_number(text);
  if (!v) usage_fail("flag '" + flag + "': '" + text + "' is not a number");
  return *v;
}

inline std::uint64_t parse_u64_flag(const std::string& flag,
                                    const std::string& text) {
  const std::optional<std::uint64_t> v = text::parse_u64(text);
  if (!v)
    usage_fail("flag '" + flag + "': '" + text +
               "' is not a non-negative integer");
  return *v;
}

inline ProcessorId parse_id_flag(const std::string& flag,
                                 const std::string& text) {
  const std::optional<std::uint32_t> v = text::parse_id(text);
  if (!v)
    usage_fail("flag '" + flag + "': '" + text + "' is not a processor id");
  return *v;
}

inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

/// The model flags' defaults, which differ per tool.
struct ModelDefaults {
  std::string topology, n, lower, upper;
};

/// The system a command line names: an explicit --model file, or a
/// generated --topology of --n processors (drawn from `rng`) with uniform
/// [--lower, --upper] bounds on every link.
inline SystemModel model_from_flags(const Args& args, Rng& rng,
                                    const ModelDefaults& defaults) {
  if (args.has("--model")) return load_model_file(args.get("--model"));
  const auto n = static_cast<std::size_t>(
      parse_u64_flag("--n", args.get("--n", defaults.n)));
  SystemModel m(make_named(args.get("--topology", defaults.topology), n, rng));
  const double lower =
      parse_double_flag("--lower", args.get("--lower", defaults.lower));
  const double upper =
      parse_double_flag("--upper", args.get("--upper", defaults.upper));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bounds(a, b, lower, upper));
  return m;
}

// ---------------------------------------------------------------------------
// JSON writers of the --json reports

/// JSON number.  JSON has no infinity or NaN, so those print as the strings
/// "inf", "-inf" and "nan", as Metrics::to_json prints them.
inline std::string jnum(double v) {
  if (std::isfinite(v)) return text::format_double(v);
  return v > 0 ? "\"inf\"" : v < 0 ? "\"-inf\"" : "\"nan\"";
}

inline std::string jbool(bool b) { return b ? "true" : "false"; }

inline std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

inline std::string jarray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += jnum(values[i]);
  }
  return out + "]";
}

inline std::string jarray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(values[i]);
  }
  return out + "]";
}

}  // namespace cs::cli
