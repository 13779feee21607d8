#include "trace/replay.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cs {
namespace {

/// Bounded divergence collector: keeps the first `cap` messages and counts
/// the rest, so reports stay readable on badly diverged inputs.
class Report {
 public:
  explicit Report(std::size_t cap) : cap_(cap) {}

  void add(const std::string& msg) {
    if (messages_.size() < cap_)
      messages_.push_back(msg);
    else
      ++suppressed_;
  }

  bool full() const { return messages_.size() >= cap_; }

  std::vector<std::string> take() {
    if (suppressed_ > 0)
      messages_.push_back("... " + std::to_string(suppressed_) +
                          " further divergences suppressed");
    return std::move(messages_);
  }

 private:
  std::size_t cap_;
  std::size_t suppressed_{0};
  std::vector<std::string> messages_;
};

void compare_u64(Report& out, const std::string& what, std::uint64_t a,
                 std::uint64_t b) {
  if (a != b)
    out.add(what + ": " + std::to_string(a) + " vs " + std::to_string(b));
}

void compare_num(Report& out, const std::string& what, double a, double b) {
  if (!(a == b))  // bit-level intent; traces never contain NaN
    out.add(what + ": " + text::format_double(a) + " vs " +
            text::format_double(b));
}

/// Field-level comparison of one epoch's recorded outcome rows; used both
/// by replay verification ("recorded vs replayed") and by trace diff.
void compare_records(Report& out, const std::string& prefix,
                     const EpochRecord& a, const EpochRecord& b) {
  compare_num(out, prefix + " boundary", a.boundary.sec, b.boundary.sec);
  compare_num(out, prefix + " precision", a.precision.value(),
              b.precision.value());
  compare_u64(out, prefix + " carried_edges", a.carried_edges,
              b.carried_edges);
  compare_u64(out, prefix + " observed_directions", a.observed_directions,
              b.observed_directions);
  compare_u64(out, prefix + " total_directions", a.total_directions,
              b.total_directions);
  compare_u64(out, prefix + " pairing.paired", a.pairing.paired,
              b.pairing.paired);
  compare_u64(out, prefix + " pairing.orphan_receives",
              a.pairing.orphan_receives, b.pairing.orphan_receives);
  compare_u64(out, prefix + " pairing.duplicate_receives",
              a.pairing.duplicate_receives, b.pairing.duplicate_receives);
  compare_u64(out, prefix + " pairing.unreceived_sends",
              a.pairing.unreceived_sends, b.pairing.unreceived_sends);
  compare_u64(out, prefix + " component count", a.component_precision.size(),
              b.component_precision.size());
  if (a.component_precision.size() == b.component_precision.size())
    for (std::size_t c = 0; c < a.component_precision.size(); ++c)
      compare_num(out, prefix + " component_precision[" + std::to_string(c) +
                           "]",
                  a.component_precision[c], b.component_precision[c]);
  compare_u64(out, prefix + " corrections count", a.corrections.size(),
              b.corrections.size());
  if (a.corrections.size() == b.corrections.size())
    for (std::size_t p = 0; p < a.corrections.size(); ++p)
      compare_num(out, prefix + " corrections[" + std::to_string(p) + "]",
                  a.corrections[p], b.corrections[p]);
}

void compare_map(Report& out, const std::string& what,
                 const std::map<std::string, std::uint64_t>& a,
                 const std::map<std::string, std::uint64_t>& b) {
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end())
      out.add(what + " '" + name + "': " + std::to_string(value) +
              " vs <absent>");
    else if (it->second != value)
      out.add(what + " '" + name + "': " + std::to_string(value) + " vs " +
              std::to_string(it->second));
  }
  for (const auto& [name, value] : b)
    if (a.find(name) == a.end())
      out.add(what + " '" + name + "': <absent> vs " +
              std::to_string(value));
}

/// How many event records of each kind a trace holds, losses by cause.
struct EventCounts {
  std::uint64_t delivered{0};
  std::uint64_t fired_timers{0};
  std::uint64_t duplicated{0};
  std::uint64_t crash_dropped{0};
  std::uint64_t suppressed_timers{0};
  std::uint64_t spikes{0};
  std::uint64_t sampler_losses{0};
  std::uint64_t fault_drops{0};
  std::uint64_t link_down_drops{0};
};

EventCounts count_events(const std::vector<TraceEvent>& events) {
  EventCounts c;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceEvent::Kind::kDeliver: ++c.delivered; break;
      case TraceEvent::Kind::kTimerFire: ++c.fired_timers; break;
      case TraceEvent::Kind::kDuplicate: ++c.duplicated; break;
      case TraceEvent::Kind::kCrashDrop: ++c.crash_dropped; break;
      case TraceEvent::Kind::kTimerSuppressed: ++c.suppressed_timers; break;
      case TraceEvent::Kind::kSpike: ++c.spikes; break;
      case TraceEvent::Kind::kLoss:
        switch (ev.cause) {
          case LossCause::kSampler: ++c.sampler_losses; break;
          case LossCause::kFaultDrop: ++c.fault_drops; break;
          case LossCause::kLinkDown: ++c.link_down_drops; break;
        }
        break;
      case TraceEvent::Kind::kSend:
      case TraceEvent::Kind::kTimerSet:
        break;
    }
  }
  return c;
}

/// The simulator tallies implied by the event records alone.
std::map<std::string, std::uint64_t> tallies_of_events(const EventCounts& c) {
  return {{"delivered", c.delivered},
          {"lost", c.sampler_losses},
          {"fired_timers", c.fired_timers},
          {"fault_dropped", c.fault_drops + c.link_down_drops},
          {"duplicated", c.duplicated},
          {"crash_dropped", c.crash_dropped},
          {"suppressed_timers", c.suppressed_timers}};
}

/// The "fault.*" counters the injector and simulator would have counted
/// for these records; a zero count adds no key, as there.
void publish_fault_counters(Metrics& metrics, const EventCounts& c) {
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"fault.dropped", c.fault_drops},
      {"fault.link_down_drops", c.link_down_drops},
      {"fault.delay_spikes", c.spikes},
      {"fault.duplicated", c.duplicated},
      {"fault.crash_dropped_deliveries", c.crash_dropped},
      {"fault.suppressed_timers", c.suppressed_timers}};
  for (const auto& [name, count] : counters)
    if (count != 0) metrics.increment(name, count);
}

}  // namespace

std::vector<View> views_from_trace(const Trace& trace) {
  std::vector<View> views(trace.processors);
  for (ProcessorId p = 0; p < trace.processors; ++p) {
    views[p].pid = p;
    ViewEvent start;
    start.kind = EventKind::kStart;
    start.when = ClockTime{0.0};
    views[p].events.push_back(start);
  }
  auto view_of = [&](ProcessorId pid) -> View& {
    if (pid >= trace.processors)
      throw Error("trace event names processor " + std::to_string(pid) +
                  " but the trace declares only " +
                  std::to_string(trace.processors));
    return views[pid];
  };
  for (const TraceEvent& ev : trace.events) {
    ViewEvent ve;
    switch (ev.kind) {
      case TraceEvent::Kind::kSend:
        ve.kind = EventKind::kSend;
        ve.when = ev.clock;
        ve.msg = ev.msg;
        ve.peer = ev.b;
        view_of(ev.a).events.push_back(ve);
        break;
      case TraceEvent::Kind::kDeliver:
        ve.kind = EventKind::kReceive;
        ve.when = ev.clock;
        ve.msg = ev.msg;
        ve.peer = ev.b;
        view_of(ev.a).events.push_back(ve);
        break;
      case TraceEvent::Kind::kTimerSet:
        ve.kind = EventKind::kTimerSet;
        ve.when = ev.clock;
        ve.timer_at = ev.timer_at;
        view_of(ev.a).events.push_back(ve);
        break;
      case TraceEvent::Kind::kTimerFire:
        ve.kind = EventKind::kTimerFire;
        ve.when = ev.clock;
        ve.timer_at = ev.timer_at;
        view_of(ev.a).events.push_back(ve);
        break;
      case TraceEvent::Kind::kLoss:
      case TraceEvent::Kind::kCrashDrop:
      case TraceEvent::Kind::kDuplicate:
      case TraceEvent::Kind::kSpike:
      case TraceEvent::Kind::kTimerSuppressed:
        break;  // no processor observed anything
    }
  }
  return views;
}

ReplayResult replay(const Trace& trace) {
  ReplayResult result;
  const SystemModel model = trace.model();
  if (model.processor_count() != trace.processors)
    throw Error("embedded model declares " +
                std::to_string(model.processor_count()) +
                " processors, trace header says " +
                std::to_string(trace.processors));
  {
    auto timer =
        Metrics::scoped(&result.metrics, "stage.ingest.views_seconds");
    result.views = views_from_trace(trace);
  }

  // The "fault.*" counters and the tallies are a pure function of the
  // event records.
  const EventCounts counts = count_events(trace.events);
  publish_fault_counters(result.metrics, counts);

  EpochOptions options = trace.plan.options;
  options.sync.metrics = &result.metrics;
  result.epochs = epochal_synchronize_incremental(
      model, result.views, trace.plan.boundaries, options);

  Report report(64);
  if (!trace.recorded.empty()) {
    compare_u64(report, "epoch count", trace.recorded.size(),
                result.epochs.size());
    const std::size_t n =
        std::min(trace.recorded.size(), result.epochs.size());
    for (std::size_t k = 0; k < n; ++k)
      compare_records(report, "epoch " + std::to_string(k),
                      trace.recorded[k], epoch_record(result.epochs[k]));
  }
  if (!trace.counters.empty())
    compare_map(report, "counter", trace.counters,
                result.metrics.counters());
  if (!trace.tallies.empty())
    compare_map(report, "tally", trace.tallies, tallies_of_events(counts));
  result.divergences = report.take();
  return result;
}

std::vector<std::string> diff_traces(const Trace& a, const Trace& b,
                                     std::size_t max_reports) {
  Report report(max_reports);
  compare_u64(report, "processors", a.processors, b.processors);
  compare_u64(report, "seed", a.seed, b.seed);

  compare_u64(report, "start count", a.starts.size(), b.starts.size());
  if (a.starts.size() == b.starts.size())
    for (std::size_t p = 0; p < a.starts.size(); ++p)
      compare_num(report, "start " + std::to_string(p), a.starts[p],
                  b.starts[p]);
  compare_u64(report, "rate count", a.rates.size(), b.rates.size());
  if (a.rates.size() == b.rates.size())
    for (std::size_t p = 0; p < a.rates.size(); ++p)
      compare_num(report, "rate " + std::to_string(p), a.rates[p],
                  b.rates[p]);

  if (a.model_text != b.model_text) {
    std::istringstream sa(a.model_text), sb(b.model_text);
    std::string la, lb;
    std::size_t line = 0;
    while (true) {
      ++line;
      const bool ga = static_cast<bool>(std::getline(sa, la));
      const bool gb = static_cast<bool>(std::getline(sb, lb));
      if (!ga && !gb) break;
      if (!ga || !gb || la != lb) {
        report.add("model line " + std::to_string(line) + ": '" +
                   (ga ? la : "<eof>") + "' vs '" + (gb ? lb : "<eof>") +
                   "'");
        break;
      }
    }
  }

  compare_u64(report, "plan root", a.plan.options.sync.root,
              b.plan.options.sync.root);
  compare_u64(report, "plan match",
              static_cast<std::uint64_t>(a.plan.options.sync.match),
              static_cast<std::uint64_t>(b.plan.options.sync.match));
  compare_num(report, "plan window", a.plan.options.window.sec,
              b.plan.options.window.sec);
  compare_u64(report, "plan staleness carry",
              a.plan.options.staleness.carry_forward ? 1 : 0,
              b.plan.options.staleness.carry_forward ? 1 : 0);
  compare_num(report, "plan staleness widen",
              a.plan.options.staleness.widen_per_epoch,
              b.plan.options.staleness.widen_per_epoch);
  compare_u64(report, "plan staleness max age",
              a.plan.options.staleness.max_carry_epochs,
              b.plan.options.staleness.max_carry_epochs);
  compare_u64(report, "boundary count", a.plan.boundaries.size(),
              b.plan.boundaries.size());
  if (a.plan.boundaries.size() == b.plan.boundaries.size())
    for (std::size_t k = 0; k < a.plan.boundaries.size();
         ++k)
      compare_num(report, "boundary " + std::to_string(k),
                  a.plan.boundaries[k].sec, b.plan.boundaries[k].sec);

  compare_u64(report, "event count", a.events.size(), b.events.size());
  const std::size_t n_events = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < n_events; ++i)
    if (!(a.events[i] == b.events[i]))
      report.add("event " + std::to_string(i) + ": '" +
                 format_event(a.events[i]) + "' vs '" +
                 format_event(b.events[i]) + "'");

  compare_map(report, "tally", a.tallies, b.tallies);

  compare_u64(report, "outcome count", a.recorded.size(), b.recorded.size());
  const std::size_t n_rec = std::min(a.recorded.size(), b.recorded.size());
  for (std::size_t k = 0; k < n_rec; ++k)
    compare_records(report, "outcome " + std::to_string(k), a.recorded[k],
                    b.recorded[k]);

  compare_map(report, "counter", a.counters, b.counters);
  return report.take();
}

Trace rerecorded(const Trace& trace, const ReplayResult& result) {
  Trace out = trace;
  out.recorded.clear();
  for (const EpochOutcome& epoch : result.epochs)
    out.recorded.push_back(epoch_record(epoch));
  out.counters = result.metrics.counters();
  out.tallies = tallies_of_events(count_events(trace.events));
  return out;
}

}  // namespace cs
