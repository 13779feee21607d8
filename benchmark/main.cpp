// The repository benchmark: one workload per process, a closed loop with
// one caller, every op's output checked.
//
//   ledger_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--corrupt] [--spans-dir DIR] [--git-sha SHA]
//                [--src-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced ops and prints the per-layer metrics.  The last stdout line
// is {"correct", "attempted", "failed", "metrics"}; the line before it
// carries the build/host fingerprint and run details, including the
// ungated op_ms_tail and ops_per_s (README.md, "Steadiness").
// benchmark/run.py builds this binary and is the documented entry point.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workload.hpp"

namespace {

using namespace bench;

// Each set-up repetition regenerates the inputs and runs warm-up ops;
// setup_s is the median repetition, so work moved into set-up shows.  The
// first repetition precedes every op and the rest are spread over the timed
// phase, so that setup_s samples the same host conditions as the ops.
constexpr std::size_t kSetupReps = 15;
constexpr int kWarmupOps = 2;
// op_ms_tail (run details) is the op time with this many slower ops
// beyond it.
constexpr std::size_t kTailBeyond = 10;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)();
  bool corruptible;  // supports --corrupt
};

constexpr WorkloadEntry kWorkloads[] = {
    {"ring-epoch", make_ring_epoch, true},
    {"trace-replay", make_trace_replay, true},
    {"live-loopback", make_live_loopback, false},
    {"probe-serve", make_probe_serve, false},
};

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  int trace{-1};
  bool corrupt{false};
  std::string spans_dir;
  std::string git_sha{"unavailable"};
  std::string src_digest{"unavailable"};
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload "
               "ring-epoch|trace-replay|live-loopback|probe-serve --seed N "
               "--seconds S --trace 0|1 [--corrupt] [--spans-dir DIR] "
               "[--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      args.trace = value[0] - '0';
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 && args.trace >= 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

// Peak resident set of this process image, in MB; 0 if unreadable.  VmHWM
// starts afresh at exec, unlike getrusage's ru_maxrss, which keeps the peak
// of the launcher that exec'd this binary.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string fingerprint(const Args& args) {
  return "{\"git_sha\": " + json_string(args.git_sha) +
         ", \"src_digest\": " + json_string(args.src_digest) +
         ", \"compiler\": " + json_string(BENCH_COMPILER) +
         ", \"flags\": " + json_string(BENCH_FLAGS) +
         ", \"build_type\": " + json_string(BENCH_BUILD_TYPE) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + json_string(cpu_model()) + "}";
}

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string first_error;
};

// Runs one op (plus, when traced, its shadow calls and the fold) and
// returns its wall time in ms, the op span only.
double run_op(Workload& workload, Tracer* tracer, std::uint64_t op_id,
              Tally& tally) {
  ++tally.attempted;
  bool ok = false;
  std::int64_t start = now_ns();
  std::int64_t stop = start;
  try {
    if (tracer == nullptr) {
      ok = workload.op(nullptr);
      stop = now_ns();
    } else {
      const std::int32_t span = tracer->begin("op");
      start = now_ns();
      ok = workload.op(tracer);
      stop = now_ns();
      tracer->end(span);
      ok = workload.shadow(*tracer) && ok;
      tracer->fold(op_id);
    }
  } catch (const std::exception& e) {
    stop = now_ns();
    if (tracer != nullptr) tracer->discard();
    if (tally.first_error.empty()) tally.first_error = e.what();
  }
  if (!ok) {
    ++tally.failed;
    if (tally.first_error.empty()) tally.first_error = "output check failed";
  }
  return 1e-6 * static_cast<double>(stop - start);
}

// One set-up repetition: the inputs from the seed, then the warm-up ops.
// Returns its wall time in seconds.
double setup_rep(Workload& workload, const Args& args, Tracer* tracer,
                 Tally& tally) {
  const std::int64_t start = now_ns();
  workload.setup(args.seed, args.corrupt, tracer);
  if (tracer != nullptr) tracer->fold(0);
  for (int w = 0; w < kWarmupOps; ++w) run_op(workload, nullptr, 0, tally);
  return 1e-9 * static_cast<double>(now_ns() - start);
}

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double seconds{0.0};  // of the ops, set-up repetitions excluded
};

// Closed loop: the next op starts when the previous one returns.  With a
// tracer, ops alternate untraced and traced, so the tracing overhead
// compares ops that ran under the same host load.  Set-up repetition r
// runs once r / kSetupReps of the op time has passed; its time does not
// count towards `seconds`.
Phase timed_phase(Workload& workload, const Args& args, Tracer* tracer,
                  Tally& tally) {
  Phase phase;
  phase.setup_s.push_back(setup_rep(workload, args, tracer, tally));
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t op_ns = 0;
  std::uint64_t op = 0;
  while (op_ns < budget) {
    if (phase.setup_s.size() < kSetupReps &&
        op_ns * static_cast<std::int64_t>(kSetupReps) >=
            budget * static_cast<std::int64_t>(phase.setup_s.size()))
      phase.setup_s.push_back(setup_rep(workload, args, tracer, tally));
    const std::int64_t start = now_ns();
    ++op;
    if (tracer != nullptr && op % 2 == 0)
      phase.traced_ms.push_back(run_op(workload, tracer, op, tally));
    else
      phase.untraced_ms.push_back(run_op(workload, nullptr, op, tally));
    op_ns += now_ns() - start;
  }
  // Ops longer than budget / kSetupReps can outpace the schedule.
  while (phase.setup_s.size() < kSetupReps)
    phase.setup_s.push_back(setup_rep(workload, args, tracer, tally));
  phase.seconds = 1e-9 * static_cast<double>(op_ns);
  return phase;
}

void print_metric(std::string& out, const char* name, const char* unit,
                  double value) {
  if (out.size() > 1) out += ", ";
  out += json_string(name) + ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(unit) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads)
    if (args.workload == w.name) entry = &w;
  if (entry == nullptr) return usage("unknown workload");
  if (args.corrupt && !entry->corruptible)
    return usage("--corrupt applies to ring-epoch and trace-replay only");

  const std::unique_ptr<Workload> workload = entry->make();
  Tracer tracer;
  Tracer* const traced = args.trace == 1 ? &tracer : nullptr;
  Tally tally;

  Phase timed;
  try {
    timed = timed_phase(*workload, args, traced, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s set-up failed: %s\n", entry->name,
                 e.what());
    return 3;
  }
  std::vector<double> sorted = timed.untraced_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t beyond = n > kTailBeyond ? kTailBeyond : 0;
  const double tail = sorted[n - 1 - beyond];
  const double tail_percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);

  std::string spans_file;
  if (traced != nullptr && !args.spans_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.spans_dir, ec);
    spans_file = args.spans_dir + "/" + entry->name + "-seed" +
                 std::to_string(args.seed) + ".jsonl";
    if (!tracer.write_jsonl(spans_file)) {
      std::fprintf(stderr, "ledger_bench: cannot write %s\n",
                   spans_file.c_str());
      spans_file.clear();
    }
  }

  Values values;
  if (traced == nullptr) {
    const double rss = peak_rss_mb();
    if (!(rss > 0.0)) {
      std::fprintf(stderr, "ledger_bench: no VmHWM in /proc/self/status\n");
      return 3;
    }
    values["op_ms_p50"] = median(timed.untraced_ms);
    values["setup_s"] = median(timed.setup_s);
    values["peak_rss_mb"] = rss;
  } else {
    workload->layer_metrics(tracer, values);
    const double traced_p50 = median(timed.traced_ms);
    const double residual = tracer.median_ms("op");
    values["residual_ms"] = residual;
    values["residual_pct"] = 100.0 * residual / traced_p50;
    values["tracing.op_ms_p50"] = traced_p50;
    values["tracing.overhead_pct"] =
        100.0 * (traced_p50 / median(timed.untraced_ms) - 1.0);
  }
  const std::span<const MetricDef> printed =
      traced == nullptr ? std::span<const MetricDef>(kEndToEnd)
                        : std::span<const MetricDef>(kPerLayer);
  std::string metrics = "{";
  for (const MetricDef& m : printed) {
    const auto it = values.find(m.name);
    print_metric(metrics, m.name, m.unit,
                 it == values.end() ? 0.0 : it->second);
    if (it != values.end()) values.erase(it);
  }
  metrics += "}";
  if (!values.empty()) {
    std::fprintf(stderr, "ledger_bench: unlisted metric %s\n",
                 values.begin()->first.c_str());
    return 3;
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"fingerprint\": %s, \"setup_reps\": %zu, \"warmup_ops_per_setup\": "
      "%d, \"timed_ops\": %zu, \"ops_per_s\": %s, \"op_ms_tail\": %s, "
      "\"op_ms_tail_percentile\": %s, \"op_ms_tail_samples_beyond\": %zu, "
      "\"spans_file\": %s, "
      "\"spans_kept\": %zu, \"spans_dropped\": %zu, \"first_error\": %s}\n",
      json_string(entry->name).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace,
      fingerprint(args).c_str(), timed.setup_s.size(), kWarmupOps, n,
      json_number(static_cast<double>(n) / timed.seconds).c_str(),
      json_number(tail).c_str(), json_number(tail_percentile).c_str(), beyond,
      json_string(spans_file).c_str(), tracer.kept(), tracer.dropped(),
      json_string(tally.first_error).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return 0;
}
