// The benchmark's workloads and the metric names it prints.
//
// Each workload drives the library only through its public API.  setup()
// builds the inputs from the seed, op() runs one closed-loop op and checks
// its output, and the traced run adds shadow(): the inner calls of the op's
// nested public calls, timed on the same inputs after the op span closed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "delaymodel/assignment.hpp"
#include "tracer.hpp"

namespace bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by the untraced run (--trace 0); mirrors BENCHMARK.json.
inline constexpr MetricDef kEndToEnd[] = {
    {"op_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by the traced run (--trace 1), every name on every workload; a
// layer the workload bypasses reads 0.  Mirrors BENCHMARK.json.
inline constexpr MetricDef kPerLayer[] = {
    {"core.shifts_ms", "ms"},
    {"core.shifts_k", "count"},
    {"core.global_estimates_ms", "ms"},
    {"delaymodel.traffic_ms", "ms"},
    {"delaymodel.paired_messages", "count"},
    {"core.local_estimates_ms", "ms"},
    {"core.mls_edges", "count"},
    {"core.sync_self_ms", "ms"},
    {"core.check_ms", "ms"},
    {"sim.simulate_ms", "ms"},
    {"trace.parse_ms", "ms"},
    {"trace.parse_mb_per_s", "MB/s"},
    {"trace.events", "count"},
    {"trace.bytes", "B"},
    {"trace.views_ms", "ms"},
    {"core.epochs_ms", "ms"},
    {"core.epochs", "count"},
    {"delaymodel.orphan_receives", "count"},
    {"trace.verify_ms", "ms"},
    {"sim.record_ms", "ms"},
    {"trace.write_ms", "ms"},
    {"runtime.protocol_ms", "ms"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.events", "count"},
    {"runtime.reports_absorbed", "count"},
    {"runtime.acks", "count"},
    {"runtime.offline_check_ms", "ms"},
    {"net.server_step_us", "us"},
    {"common.metrics_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.client_io_us", "us"},
    {"net.frames_received", "count"},
    {"net.bytes_per_datagram", "B"},
    {"net.decode_errors", "count"},
    {"net.backpressure_dropped", "count"},
    {"net.echo_ratio", "ratio"},
    {"residual_ms", "ms"},
    {"residual_pct", "%"},
    {"tracing.op_ms_p50", "ms"},
    {"tracing.overhead_pct", "%"},
};

using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up repetition: builds the run's inputs from `seed` (the
  /// library receives only these).  `corrupt` plants a bad input that
  /// every op must report as failed.  Set-up spans go to `tracer` if set.
  virtual void setup(std::uint64_t seed, bool corrupt, Tracer* tracer) = 0;

  /// One op; true iff its outputs pass the workload's check.  Throwing
  /// also counts as a failed op.
  virtual bool op(Tracer* tracer) = 0;

  /// Traced run only, after the op span: the inner calls of the op's
  /// nested public calls, on the op's inputs; false if their results
  /// disagree with the op's.
  virtual bool shadow(Tracer& tracer) = 0;

  /// Per-layer metrics of the traced phase; names must be in kPerLayer.
  virtual void layer_metrics(const Tracer& tracer, Values& out) const = 0;
};

std::unique_ptr<Workload> make_ring_epoch();
std::unique_ptr<Workload> make_trace_replay();
std::unique_ptr<Workload> make_live_loopback();
std::unique_ptr<Workload> make_probe_serve();

/// A topology whose every link promises delays in [lb, ub].
inline cs::SystemModel bounds_model(cs::Topology topology, double lb,
                                    double ub) {
  cs::SystemModel model(std::move(topology));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(cs::make_bounds(a, b, lb, ub));
  return model;
}

}  // namespace bench
