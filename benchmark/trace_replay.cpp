// trace-replay: load_trace on an in-memory trace, then replay, checked
// against the recording.  Complete-32 probed by 8 ping-pong rounds with 4
// epoch boundaries inside the probe phase: ~32k events, ~1.9 MB of text.
// Parsing dominates, the incremental multi-epoch pipeline is most of the
// rest, and SHIFTS at k = 32 is negligible.  Set-up records the run and
// serializes it, which exercises the write side of the same layer.
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "proto/ping_pong.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace cs;

constexpr std::size_t kNodes = 32;

class TraceReplay final : public Workload {
 public:
  void setup(std::uint64_t seed, bool corrupt, Tracer* tracer) override {
    const SystemModel model = bounds_model(make_complete(kNodes), 0.001, 0.050);
    Rng rng(seed);
    SimOptions options;
    options.start_offsets = random_start_offsets(kNodes, 0.5, rng);
    options.seed = seed;
    PingPongParams probe;
    probe.warmup = Duration{0.6};
    probe.rounds = 8;
    ReplayPlan plan;
    plan.options.sync.match = MatchPolicy::kDropOrphans;
    plan.boundaries = {ClockTime{0.7}, ClockTime{0.8}, ClockTime{0.9},
                       ClockTime{1.0}};

    std::ostringstream text;
    TraceWriter writer(text);
    std::int32_t record_span = -1;
    {
      Span span(tracer, "sim.record_run");
      record_span = span.id();
      record_run(model, make_ping_pong(probe), options, plan, writer);
    }
    if (tracer != nullptr) {
      // record_run serializes the trace as its last step.  Time that step
      // again on its own, as a child of record_run, so that record_run is
      // charged only the rest.
      std::ostringstream again;
      Span write(tracer, "trace.write", record_span);
      save_trace(again, writer.trace());
    }
    text_ = text.str();

    std::istringstream in(text_);
    reference_ = load_trace(in);
    if (corrupt) {
      // Move the first delivery 20 ms earlier: its delay estimate drops
      // below what the declared bounds allow, so replay must not match.
      for (TraceEvent& ev : reference_.events)
        if (ev.kind == TraceEvent::Kind::kDeliver) {
          ev.clock.sec -= 0.020;
          break;
        }
      std::ostringstream bad;
      save_trace(bad, reference_);
      text_ = bad.str();
    }
    model_.reset();
    model_.emplace(reference_.model());
  }

  bool op(Tracer* tracer) override {
    Trace trace;
    {
      Span span(tracer, "trace.load");
      std::istringstream in(text_);
      trace = load_trace(in);
    }
    ReplayResult result;
    {
      Span span(tracer, "trace.replay");
      replay_span_ = span.id();
      result = replay(trace);
    }
    events_ = trace.events.size();
    epochs_ = result.epochs.size();
    orphans_ = 0;
    for (const EpochOutcome& epoch : result.epochs)
      orphans_ += epoch.pairing.orphan_receives;
    return result.matches_recording();
  }

  bool shadow(Tracer& tracer) override {
    std::vector<View> views;
    {
      Span span(&tracer, "trace.views", replay_span_);
      views = views_from_trace(reference_);
    }
    // replay() attaches a metrics sink to the epoch pipeline; so do we.
    Metrics sink;
    EpochOptions options = reference_.plan.options;
    options.sync.metrics = &sink;
    std::vector<EpochOutcome> epochs;
    {
      Span span(&tracer, "core.epochs", replay_span_);
      epochs = epochal_synchronize_incremental(
          *model_, views, reference_.plan.boundaries, options);
    }
    if (epochs.size() != reference_.recorded.size()) return false;
    for (std::size_t k = 0; k < epochs.size(); ++k)
      if (!(epoch_record(epochs[k]) == reference_.recorded[k])) return false;
    return true;
  }

  void layer_metrics(const Tracer& tracer, Values& out) const override {
    const double parse_ms = tracer.median_ms("trace.load");
    out["trace.parse_ms"] = parse_ms;
    out["trace.bytes"] = static_cast<double>(text_.size());
    out["trace.parse_mb_per_s"] =
        parse_ms > 0.0 ? 1e-3 * static_cast<double>(text_.size()) / parse_ms
                       : 0.0;
    out["trace.events"] = static_cast<double>(events_);
    out["trace.views_ms"] = tracer.median_ms("trace.views");
    out["core.epochs_ms"] = tracer.median_ms("core.epochs");
    out["core.epochs"] = static_cast<double>(epochs_);
    out["delaymodel.orphan_receives"] = static_cast<double>(orphans_);
    out["trace.verify_ms"] = tracer.median_ms("trace.replay");
    out["sim.record_ms"] = tracer.median_ms("sim.record_run");
    out["trace.write_ms"] = tracer.median_ms("trace.write");
  }

 private:
  std::string text_;
  Trace reference_;  // text_ parsed once, the shadow calls' input
  std::optional<SystemModel> model_;
  std::int32_t replay_span_{-1};
  std::size_t events_{0};
  std::size_t epochs_{0};
  std::size_t orphans_{0};
};

}  // namespace

std::unique_ptr<Workload> make_trace_replay() {
  return std::make_unique<TraceReplay>();
}

}  // namespace bench
