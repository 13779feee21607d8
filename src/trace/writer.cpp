#include "trace/writer.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/views_io.hpp"

namespace cs {
namespace {

TraceEvent make_event(TraceEvent::Kind kind, RealTime t, ProcessorId a,
                      ProcessorId b, MessageId msg) {
  TraceEvent ev;
  ev.kind = kind;
  ev.real = t;
  ev.a = a;
  ev.b = b;
  ev.msg = msg;
  return ev;
}

}  // namespace

void TraceWriter::begin_run(const SystemModel& model,
                            const SimOptions& options) {
  trace_.processors = model.processor_count();
  trace_.seed = options.seed;
  trace_.starts.clear();
  trace_.starts.reserve(options.start_offsets.size());
  for (const Duration offset : options.start_offsets)
    trace_.starts.push_back((RealTime{} + offset).sec);
  trace_.rates.clear();
  for (const double r : options.clock_rates) trace_.rates.push_back(r);

  std::ostringstream model_os;
  save_model(model_os, model);
  trace_.model_text = model_os.str();
}

void TraceWriter::record_send(RealTime t, ProcessorId from, ProcessorId to,
                              MessageId msg, ClockTime when) {
  TraceEvent ev = make_event(TraceEvent::Kind::kSend, t, from, to, msg);
  ev.clock = when;
  trace_.events.push_back(ev);
}

void TraceWriter::record_delivery(RealTime t, ProcessorId to,
                                  ProcessorId from, MessageId msg,
                                  ClockTime when) {
  TraceEvent ev = make_event(TraceEvent::Kind::kDeliver, t, to, from, msg);
  ev.clock = when;
  trace_.events.push_back(ev);
}

void TraceWriter::record_loss(RealTime t, ProcessorId from, ProcessorId to,
                              MessageId msg, LossCause cause) {
  TraceEvent ev = make_event(TraceEvent::Kind::kLoss, t, from, to, msg);
  ev.cause = cause;
  trace_.events.push_back(ev);
}

void TraceWriter::record_duplicate(RealTime t, ProcessorId from,
                                   ProcessorId to, MessageId msg,
                                   double lag) {
  TraceEvent ev = make_event(TraceEvent::Kind::kDuplicate, t, from, to, msg);
  ev.extra = lag;
  trace_.events.push_back(ev);
}

void TraceWriter::record_spike(RealTime t, ProcessorId from, ProcessorId to,
                               MessageId msg, double extra) {
  TraceEvent ev = make_event(TraceEvent::Kind::kSpike, t, from, to, msg);
  ev.extra = extra;
  trace_.events.push_back(ev);
}

void TraceWriter::record_crash_drop(RealTime t, ProcessorId to,
                                    ProcessorId from, MessageId msg) {
  trace_.events.push_back(
      make_event(TraceEvent::Kind::kCrashDrop, t, to, from, msg));
}

void TraceWriter::record_timer_set(RealTime t, ProcessorId pid, ClockTime now,
                                   ClockTime at) {
  TraceEvent ev = make_event(TraceEvent::Kind::kTimerSet, t, pid, pid, 0);
  ev.b = 0;
  ev.clock = now;
  ev.timer_at = at;
  trace_.events.push_back(ev);
}

void TraceWriter::record_timer_fire(RealTime t, ProcessorId pid,
                                    ClockTime when, ClockTime at) {
  TraceEvent ev = make_event(TraceEvent::Kind::kTimerFire, t, pid, pid, 0);
  ev.b = 0;
  ev.clock = when;
  ev.timer_at = at;
  trace_.events.push_back(ev);
}

void TraceWriter::record_timer_suppressed(RealTime t, ProcessorId pid,
                                          ClockTime at) {
  TraceEvent ev =
      make_event(TraceEvent::Kind::kTimerSuppressed, t, pid, pid, 0);
  ev.b = 0;
  ev.timer_at = at;
  trace_.events.push_back(ev);
}

void TraceWriter::end_run(const SimResult& result) {
  trace_.tallies["delivered"] = result.delivered_messages;
  trace_.tallies["lost"] = result.lost_messages;
  trace_.tallies["fired_timers"] = result.fired_timers;
  trace_.tallies["fault_dropped"] = result.fault_dropped_messages;
  trace_.tallies["duplicated"] = result.duplicated_messages;
  trace_.tallies["crash_dropped"] = result.crash_dropped_deliveries;
  trace_.tallies["suppressed_timers"] = result.suppressed_timers;
}

void TraceWriter::plan(const ReplayPlan& plan) {
  trace_.plan = plan;
  trace_.plan.options.sync.metrics = nullptr;  // never serialized
}

void TraceWriter::outcome(const EpochOutcome& epoch) {
  trace_.recorded.push_back(epoch_record(epoch));
}

void TraceWriter::counters(const Metrics& metrics) {
  trace_.counters = metrics.counters();
}

void TraceWriter::finish() {
  if (finished_) throw Error("TraceWriter::finish() called twice");
  finished_ = true;
  if (os_ != nullptr) {
    save_trace(*os_, trace_);
    return;
  }
  save_trace_file(path_, trace_);
}

RecordResult record_run(const SystemModel& model,
                        const AutomatonFactory& factory,
                        const SimOptions& sim_options, const ReplayPlan& plan,
                        TraceWriter& writer) {
  RecordResult result;
  result.plan = plan;
  result.plan.options.sync.metrics = &result.metrics;

  SimOptions options = sim_options;
  options.trace = &writer;
  options.metrics = &result.metrics;
  result.sim = simulate(model, factory, options);

  const std::vector<View> views = result.sim.execution.views();
  if (result.plan.boundaries.empty()) {
    // One epoch over everything: a boundary safely past the last event on
    // any clock (View::prefix keeps events strictly before the cutoff).
    double last = 0.0;
    for (const View& v : views)
      for (const ViewEvent& e : v.events) last = std::max(last, e.when.sec);
    result.plan.boundaries.push_back(ClockTime{last + 1.0});
  }

  result.epochs = epochal_synchronize_incremental(
      model, views, result.plan.boundaries, result.plan.options);

  writer.plan(result.plan);
  for (const EpochOutcome& epoch : result.epochs) writer.outcome(epoch);
  writer.counters(result.metrics);
  writer.finish();
  return result;
}

}  // namespace cs
