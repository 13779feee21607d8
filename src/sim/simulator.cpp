#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace_sink.hpp"

namespace cs {
namespace {

class SimulatorImpl {
 public:
  SimulatorImpl(const SystemModel& model, const AutomatonFactory& factory,
                std::vector<std::unique_ptr<DelaySampler>> samplers,
                const SimOptions& options)
      : model_(model), samplers_(std::move(samplers)), options_(options),
        trace_(options.trace) {
    const std::size_t n = model.processor_count();
    if (options.start_offsets.size() != n)
      throw Error("start_offsets size must equal processor count");
    if (samplers_.size() != model.topology().link_count())
      throw Error("need exactly one sampler per topology link");

    const Rng master(options.seed);
    link_rngs_.reserve(samplers_.size());
    for (std::size_t i = 0; i < samplers_.size(); ++i)
      link_rngs_.push_back(master.split(i));

    if (!options.clock_rates.empty()) {
      if (options.clock_rates.size() != n)
        throw Error("clock_rates must be empty or one per processor");
      for (double r : options.clock_rates) validated_clock_rate(r);
    }
    if (!options.clock_schedules.empty() &&
        options.clock_schedules.size() != n)
      throw Error("clock_schedules must be empty or one per processor");
    const bool any_drift =
        std::any_of(options.clock_rates.begin(), options.clock_rates.end(),
                    [](double r) { return r != 1.0; }) ||
        std::any_of(options.clock_schedules.begin(),
                    options.clock_schedules.end(),
                    [](const auto& s) { return s != nullptr; });
    if (any_drift && options.check_admissible)
      throw Error(
          "drifting clocks are outside the paper's model: disable "
          "check_admissible to simulate them (docs/DRIFT.md)");

    if (options.faults != nullptr) {
      injector_.emplace(*options.faults, model.topology().link_count(),
                        options.metrics);
      for (const CrashWindow& c : options.faults->crashes()) {
        if (c.pid >= n)
          throw Error("FaultPlan: crash window names a non-existent processor");
        const RealTime start = RealTime{} + options.start_offsets[c.pid];
        if (c.window.contains(start))
          throw Error(
              "FaultPlan: crash window covers the processor's start time; "
              "begin the crash after the processor starts");
      }
    }

    const auto adjacency = model.topology().adjacency();
    procs_.reserve(n);
    for (ProcessorId p = 0; p < n; ++p) {
      const Duration offset = options.start_offsets[p];
      if (offset < Duration{0.0})
        throw Error("start offsets must be non-negative");
      const double rate =
          options.clock_rates.empty() ? 1.0 : options.clock_rates[p];
      const std::shared_ptr<const RateSchedule> schedule =
          options.clock_schedules.empty() ? nullptr
                                          : options.clock_schedules[p];
      Proc proc;
      proc.automaton = factory(p);
      proc.clock = schedule != nullptr
                       ? Clock(RealTime{} + offset, schedule)
                       : Clock(RealTime{} + offset, rate);
      proc.history = History(p, proc.clock.start());
      proc.neighbors = adjacency[p];
      std::sort(proc.neighbors.begin(), proc.neighbors.end());
      procs_.push_back(std::move(proc));
    }
  }

  SimResult run() {
    if (trace_ != nullptr) trace_->begin_run(model_, options_);
    for (ProcessorId p = 0; p < procs_.size(); ++p) {
      SimEvent ev;
      ev.kind = SimEvent::Kind::kStart;
      ev.processor = p;
      queue_.push(procs_[p].clock.start(), ev);
    }

    std::size_t processed = 0;
    while (!queue_.empty()) {
      if (++processed > options_.max_events)
        throw Error("simulation exceeded max_events (runaway protocol?)");
      now_ = queue_.next_time();
      const SimEvent ev = queue_.pop();
      dispatch(ev);
    }

    std::vector<History> histories;
    histories.reserve(procs_.size());
    for (Proc& p : procs_) histories.push_back(std::move(p.history));

    SimResult result;
    result.execution = Execution(std::move(histories));
    result.delivered_messages = delivered_;
    result.lost_messages = lost_;
    result.fired_timers = fired_timers_;
    result.fault_dropped_messages = fault_dropped_;
    result.duplicated_messages = duplicated_;
    result.crash_dropped_deliveries = crash_dropped_;
    result.suppressed_timers = suppressed_timers_;

    // Duplicating or spiking plans violate the declared assumptions by
    // design; checking the trace against them would (rightly) throw, so the
    // check is meaningful only for omission-only fault plans.
    const bool checkable =
        (options_.faults == nullptr ||
         options_.faults->admissibility_preserving()) &&
        (options_.tamper == nullptr || options_.tamper->honest());
    if (options_.check_admissible && checkable &&
        !model_.admissible(result.execution))
      throw InvalidExecution(
          "simulated execution violates the declared delay assumptions; "
          "sampler and constraint configuration disagree");
    if (trace_ != nullptr) trace_->end_run(result);
    return result;
  }

 private:
  struct Proc {
    std::unique_ptr<Automaton> automaton;
    Clock clock;
    History history;
    std::vector<ProcessorId> neighbors;
    bool started{false};
  };

  /// Context implementation handed to automaton callbacks; bound to the
  /// current event's processor and time.
  class Ctx final : public Context {
   public:
    Ctx(SimulatorImpl& sim, ProcessorId pid) : sim_(sim), pid_(pid) {}

    ProcessorId self() const override { return pid_; }
    ClockTime now() const override {
      return sim_.procs_[pid_].clock.at(sim_.now_);
    }
    std::span<const ProcessorId> neighbors() const override {
      return sim_.procs_[pid_].neighbors;
    }
    void send(ProcessorId to, Payload payload) override {
      sim_.do_send(pid_, to, std::move(payload));
    }
    void set_timer(ClockTime at) override { sim_.do_set_timer(pid_, at); }

   private:
    SimulatorImpl& sim_;
    ProcessorId pid_;
  };

  /// The stamp a history event records: the true clock time, or whatever
  /// the tamper (a Byzantine behavior model) reports instead.
  ClockTime stamped(ProcessorId pid, EventKind kind, ClockTime truth,
                    ProcessorId peer) {
    return options_.tamper == nullptr
               ? truth
               : options_.tamper->stamp(pid, kind, truth, peer);
  }

  void dispatch(const SimEvent& ev) {
    Proc& proc = procs_[ev.processor];
    Ctx ctx(*this, ev.processor);
    switch (ev.kind) {
      case SimEvent::Kind::kStart: {
        proc.started = true;
        // History's constructor already recorded the start event.
        proc.automaton->on_start(ctx);
        break;
      }
      case SimEvent::Kind::kDelivery: {
        if (!proc.started)
          throw Error("internal: delivery before start was not deferred");
        if (injector_ && injector_->crashed(ev.processor, now_)) {
          ++crash_dropped_;
          metrics_increment(options_.metrics, "fault.crash_dropped_deliveries");
          if (trace_ != nullptr)
            trace_->record_crash_drop(now_, ev.processor, ev.message.from,
                                      ev.message.id);
          break;  // the processor is dead: no view event, no callback
        }
        ViewEvent ve;
        ve.kind = EventKind::kReceive;
        ve.when = stamped(ev.processor, EventKind::kReceive,
                          proc.clock.at(now_), ev.message.from);
        ve.msg = ev.message.id;
        ve.peer = ev.message.from;
        proc.history.append(ve);
        ++delivered_;
        if (trace_ != nullptr)
          trace_->record_delivery(now_, ev.processor, ev.message.from,
                                  ev.message.id, ve.when);
        proc.automaton->on_message(ctx, ev.message);
        break;
      }
      case SimEvent::Kind::kTimer: {
        if (injector_ && injector_->crashed(ev.processor, now_)) {
          ++suppressed_timers_;
          metrics_increment(options_.metrics, "fault.suppressed_timers");
          if (trace_ != nullptr)
            trace_->record_timer_suppressed(now_, ev.processor, ev.timer_at);
          break;  // lost wakeup: crashed nodes miss their timers
        }
        ViewEvent ve;
        ve.kind = EventKind::kTimerFire;
        ve.when = stamped(ev.processor, EventKind::kTimerFire,
                          proc.clock.at(now_), ev.processor);
        ve.timer_at = ev.timer_at;
        proc.history.append(ve);
        ++fired_timers_;
        if (trace_ != nullptr)
          trace_->record_timer_fire(now_, ev.processor, ve.when, ev.timer_at);
        proc.automaton->on_timer(ctx, ev.timer_at);
        break;
      }
    }
  }

  void do_send(ProcessorId from, ProcessorId to, Payload payload) {
    Proc& sender = procs_[from];
    const std::size_t dir = model_.direction(from, to);
    if (dir == SystemModel::kNoDirection)
      throw Error("automaton sent to a non-adjacent processor");

    Message msg;
    msg.id = next_msg_id_++;
    msg.from = from;
    msg.to = to;
    msg.payload = std::move(payload);

    ViewEvent ve;
    ve.kind = EventKind::kSend;
    ve.when = stamped(from, EventKind::kSend, sender.clock.at(now_), to);
    ve.msg = msg.id;
    ve.peer = to;
    sender.history.append(ve);
    if (trace_ != nullptr)
      trace_->record_send(now_, from, to, msg.id, ve.when);

    const std::size_t link = dir / 2;
    const bool a_to_b = from < to;
    double delay = samplers_[link]->sample(a_to_b, now_, link_rngs_[link]);
    if (delay < 0.0) throw Error("sampler produced a negative delay");
    if (!std::isfinite(delay)) {
      ++lost_;  // message lost in transit: sent, never delivered
      if (trace_ != nullptr)
        trace_->record_loss(now_, from, to, msg.id, LossCause::kSampler);
      return;
    }

    // Layer the fault plan over the sampled delay.  The base delay above is
    // always drawn first, so the per-link delay streams stay aligned with
    // the fault-free run.
    FaultDecision fault;
    if (injector_)
      fault = injector_->on_send(link, std::min(from, to),
                                 std::max(from, to), now_);
    if (fault.drop) {
      ++fault_dropped_;
      if (trace_ != nullptr)
        trace_->record_loss(now_, from, to, msg.id,
                            fault.cause == DropCause::kLinkDown
                                ? LossCause::kLinkDown
                                : LossCause::kFaultDrop);
      return;  // sent, never delivered (same observable shape as loss)
    }
    if (fault.extra_delay > 0.0 && trace_ != nullptr)
      trace_->record_spike(now_, from, to, msg.id, fault.extra_delay);
    delay += fault.extra_delay;

    // A message cannot be consumed before its receiver starts executing; if
    // it arrives earlier it waits (the wait is part of the actual delay, as
    // an outside observer would measure it).
    const RealTime arrival =
        std::max(now_ + Duration{delay}, procs_[to].clock.start());

    SimEvent ev;
    ev.kind = SimEvent::Kind::kDelivery;
    ev.processor = to;
    ev.message = msg;
    queue_.push(arrival, std::move(ev));

    if (fault.duplicate) {
      // Second delivery of the *same* message id, a little later — the
      // pairing layer's duplicate hazard made real.
      ++duplicated_;
      if (trace_ != nullptr)
        trace_->record_duplicate(now_, from, to, msg.id, fault.duplicate_lag);
      SimEvent dup;
      dup.kind = SimEvent::Kind::kDelivery;
      dup.processor = to;
      dup.message = std::move(msg);
      queue_.push(arrival + Duration{fault.duplicate_lag}, std::move(dup));
    }
  }

  void do_set_timer(ProcessorId pid, ClockTime at) {
    Proc& proc = procs_[pid];
    const ClockTime now_clock = proc.clock.at(now_);
    if (at < now_clock) throw Error("timer set for the past");

    ViewEvent ve;
    ve.kind = EventKind::kTimerSet;
    ve.when = stamped(pid, EventKind::kTimerSet, now_clock, pid);
    ve.timer_at = at;
    proc.history.append(ve);
    if (trace_ != nullptr)
      trace_->record_timer_set(now_, pid, now_clock, at);

    SimEvent ev;
    ev.kind = SimEvent::Kind::kTimer;
    ev.processor = pid;
    ev.timer_at = at;
    queue_.push(proc.clock.real(at), std::move(ev));
  }

  const SystemModel& model_;
  std::vector<std::unique_ptr<DelaySampler>> samplers_;
  SimOptions options_;
  TraceSink* trace_;

  std::vector<Proc> procs_;
  std::vector<Rng> link_rngs_;
  std::optional<FaultInjector> injector_;
  EventQueue queue_;
  RealTime now_{};
  MessageId next_msg_id_{1};
  std::size_t delivered_{0};
  std::size_t lost_{0};
  std::size_t fired_timers_{0};
  std::size_t fault_dropped_{0};
  std::size_t duplicated_{0};
  std::size_t crash_dropped_{0};
  std::size_t suppressed_timers_{0};
};

}  // namespace

SimResult simulate(const SystemModel& model, const AutomatonFactory& factory,
                   std::vector<std::unique_ptr<DelaySampler>> samplers,
                   const SimOptions& options) {
  SimulatorImpl sim(model, factory, std::move(samplers), options);
  return sim.run();
}

SimResult simulate(const SystemModel& model, const AutomatonFactory& factory,
                   const SimOptions& options) {
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::unique_ptr<DelaySampler>> samplers;
  samplers.reserve(model.topology().link_count());
  for (auto [a, b] : model.topology().links)
    samplers.push_back(make_admissible_sampler(model.constraint(a, b),
                                               options.delay_scale, rng));
  return simulate(model, factory, std::move(samplers), options);
}

std::vector<Duration> random_start_offsets(std::size_t n, double max_skew,
                                           Rng& rng) {
  std::vector<Duration> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Duration{rng.uniform(0.0, max_skew)});
  return out;
}

}  // namespace cs
