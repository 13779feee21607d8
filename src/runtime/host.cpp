#include "runtime/host.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "runtime/clock.hpp"
#include "sim/trace_sink.hpp"

namespace cs {

struct AgentHost::Agent {
  std::unique_ptr<Automaton> automaton;
  Clock clock;
  std::vector<ProcessorId> neighbors;
  bool started{false};
  std::deque<Inbound> deferred;  // wall mode: arrivals before the start
};

/// Context bound to one dispatch: self, the dispatch instant, and the
/// clock value computed once for everything inside the callback.
class AgentHost::Ctx final : public Context {
 public:
  Ctx(AgentHost& host, ProcessorId pid, RealTime tnow, ClockTime local)
      : host_(host), pid_(pid), tnow_(tnow), local_(local) {}

  ProcessorId self() const override { return pid_; }
  ClockTime now() const override { return local_; }
  std::span<const ProcessorId> neighbors() const override {
    return host_.agents_[pid_].neighbors;
  }
  void send(ProcessorId to, Payload payload) override {
    host_.do_send(pid_, to, std::move(payload), tnow_, local_);
  }
  void set_timer(ClockTime at) override {
    host_.do_set_timer(pid_, at, tnow_, local_);
  }

 private:
  AgentHost& host_;
  ProcessorId pid_;
  RealTime tnow_;
  ClockTime local_;
};

AgentHost::AgentHost(const SystemModel& model, Transport& transport,
                     TimeBase& time, HostOptions options)
    : model_(model), transport_(transport), time_(time),
      options_(std::move(options)), builder_(model.processor_count()) {
  const std::size_t n = model.processor_count();
  if (options_.start_offsets.size() != n)
    throw Error("AgentHost: start_offsets size must equal processor count");

  const auto adjacency = model.topology().adjacency();
  agents_.resize(n);
  for (ProcessorId p = 0; p < n; ++p) {
    const Duration offset = options_.start_offsets[p];
    if (offset < Duration{0.0})
      throw Error("AgentHost: start offsets must be non-negative");
    agents_[p].clock = Clock(RealTime{} + offset, 1.0);
    agents_[p].neighbors = adjacency[p];
    std::sort(agents_[p].neighbors.begin(), agents_[p].neighbors.end());
    transport_.open(p, [this, p](WireMessage msg) {
      // Transport-thread side of the mailbox (unused by virtual-time
      // transports, which schedule inline instead).
      std::lock_guard<std::mutex> lock(mu_);
      mailbox_.push_back(Inbound{std::move(msg), time_.now()});
      cv_.notify_all();
    });
  }
}

AgentHost::~AgentHost() = default;

RunStats AgentHost::run(const AutomatonFactory& factory,
                        const std::function<bool()>& done) {
  if (ran_) throw Error("AgentHost: run() is single-shot");
  ran_ = true;

  for (ProcessorId p = 0; p < agents_.size(); ++p)
    agents_[p].automaton = factory(p);

  if (options_.trace != nullptr) {
    SimOptions header;
    header.start_offsets = options_.start_offsets;
    header.seed = options_.seed;
    options_.trace->begin_run(model_, header);
  }

  for (ProcessorId p = 0; p < agents_.size(); ++p) {
    Pending ev;
    ev.kind = Pending::Kind::kStart;
    ev.due = agents_[p].clock.start();
    ev.seq = next_seq_++;
    ev.pid = p;
    push_event(std::move(ev));
  }

  RunStats stats;
  if (time_.is_virtual()) {
    run_virtual(done);
  } else {
    run_wall(done);
    stats.timed_out = done && !done();
  }
  stats.dispatched = dispatched_;
  publish_counters();

  if (options_.trace != nullptr) {
    // Tallies cover *recorded* events only, so a replay of the trace
    // reconciles against them even when control traffic is filtered out.
    SimResult result;
    result.delivered_messages = recorded_delivered_;
    result.fired_timers = recorded_timer_fires_;
    result.fault_dropped_messages = recorded_dropped_;
    options_.trace->end_run(result);
  }
  return stats;
}

void AgentHost::push_event(Pending ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

AgentHost::Pending AgentHost::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Pending ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void AgentHost::publish_counters() const {
  if (options_.metrics == nullptr) return;
  // One add per counter instead of a locked, string-keyed increment per
  // event.  A zero counter stays absent, as it did when nothing ever
  // incremented it, so every report keeps its key set.
  const std::pair<const char*, std::size_t> counters[] = {
      {"runtime.dispatched", dispatched_},
      {"runtime.sent", recorded_sent_},
      {"runtime.delivered", recorded_delivered_},
      {"runtime.dropped", dropped_}};
  for (const auto& [name, count] : counters)
    if (count > 0) options_.metrics->increment(name, count);
}

void AgentHost::run_virtual(const std::function<bool()>& done) {
  auto* vt = dynamic_cast<VirtualTimeBase*>(&time_);
  if (vt == nullptr)
    throw Error("AgentHost: virtual TimeBase must be a VirtualTimeBase");
  while (!heap_.empty()) {
    if (done && done()) break;
    if (dispatched_ >= options_.max_events)
      throw Error("AgentHost: exceeded max_events (runaway protocol?)");
    const Pending ev = pop_event();
    vt->advance_to(ev.due);
    dispatch(ev);
  }
}

void AgentHost::run_wall(const std::function<bool()>& done) {
  const RealTime deadline = time_.now() + options_.deadline;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (done && done()) return;
    if (dispatched_ >= options_.max_events)
      throw Error("AgentHost: exceeded max_events (runaway protocol?)");
    const RealTime now = time_.now();
    if (!(now < deadline)) return;

    if (!mailbox_.empty()) {
      // Batch drain: swap the whole mailbox out under the lock it is
      // already holding, then dispatch lock-free — one lock round-trip per
      // burst instead of one per message.  Messages still dispatch in
      // arrival order, and the mailbox always drains ahead of due timers,
      // exactly as the one-at-a-time loop behaved.
      std::deque<Inbound> batch;
      batch.swap(mailbox_);
      lock.unlock();
      metrics_observe(options_.metrics, "runtime.mailbox_batch_size",
                      static_cast<double>(batch.size()));
      for (Inbound& in : batch) {
        // Re-check the loop guards per message: a done() flip or the event
        // budget must stop dispatch mid-batch just as it stopped the
        // per-message loop (the rest of the batch goes unprocessed either
        // way — it only ever lived in the mailbox).
        if (done && done()) return;
        if (dispatched_ >= options_.max_events)
          throw Error("AgentHost: exceeded max_events (runaway protocol?)");
        if (!(time_.now() < deadline)) return;
        Agent& agent = agents_[in.msg.to];
        if (!agent.started) {
          agent.deferred.push_back(std::move(in));
          continue;
        }
        metrics_observe(options_.metrics, "runtime.ingest_latency_seconds",
                        (time_.now() - in.enqueued).sec);
        Pending ev;
        ev.kind = Pending::Kind::kDelivery;
        ev.due = time_.now();
        ev.pid = in.msg.to;
        ev.message = Message{in.msg.id, in.msg.from, in.msg.to,
                             std::move(in.msg.payload)};
        dispatch(ev);
      }
      lock.lock();
      continue;
    }

    if (!heap_.empty() && !(now < heap_.front().due)) {
      Pending ev = pop_event();
      lock.unlock();
      ev.due = time_.now();  // dispatch at the actual instant
      dispatch(ev);
      lock.lock();
      continue;
    }

    const double until_deadline = (deadline - now).sec;
    double wait_s = heap_.empty()
                        ? 0.05
                        : std::max((heap_.front().due - now).sec, 0.0);
    wait_s = std::min({wait_s, until_deadline, 0.05});
    cv_.wait_for(lock, std::chrono::duration<double>(
                           std::max(wait_s, 1e-4)));
  }
}

void AgentHost::dispatch(const Pending& ev) {
  ++dispatched_;
  Agent& agent = agents_[ev.pid];
  const RealTime tnow = ev.due;
  const ClockTime local = agent.clock.at(tnow);
  Ctx ctx(*this, ev.pid, tnow, local);

  switch (ev.kind) {
    case Pending::Kind::kStart: {
      agent.started = true;
      builder_.start(ev.pid);
      agent.automaton->on_start(ctx);
      // Wall mode: deliveries that raced ahead of the start now flow.
      while (!agent.deferred.empty()) {
        Inbound in = std::move(agent.deferred.front());
        agent.deferred.pop_front();
        Pending del;
        del.kind = Pending::Kind::kDelivery;
        del.due = time_.now();
        del.pid = in.msg.to;
        del.message = Message{in.msg.id, in.msg.from, in.msg.to,
                              std::move(in.msg.payload)};
        dispatch(del);
      }
      break;
    }
    case Pending::Kind::kDelivery: {
      const bool record = !options_.trace_filter ||
                          options_.trace_filter(ev.message.payload);
      if (record) {
        builder_.receive(ev.pid, local, ev.message.id, ev.message.from);
        ++recorded_delivered_;
        if (options_.trace != nullptr)
          options_.trace->record_delivery(tnow, ev.pid, ev.message.from,
                                          ev.message.id, local);
      }
      agent.automaton->on_message(ctx, ev.message);
      break;
    }
    case Pending::Kind::kTimer: {
      builder_.timer_fire(ev.pid, local, ev.timer_at);
      ++recorded_timer_fires_;
      if (options_.trace != nullptr)
        options_.trace->record_timer_fire(tnow, ev.pid, local, ev.timer_at);
      agent.automaton->on_timer(ctx, ev.timer_at);
      break;
    }
  }
}

void AgentHost::do_send(ProcessorId from, ProcessorId to, Payload payload,
                        RealTime tnow, ClockTime local) {
  const Agent& sender = agents_[from];
  if (!std::binary_search(sender.neighbors.begin(), sender.neighbors.end(),
                          to))
    throw Error("AgentHost: agent sent to a non-adjacent processor");

  const MessageId id = next_msg_id_++;
  const bool record =
      !options_.trace_filter || options_.trace_filter(payload);
  if (record) {
    builder_.send(from, local, id, to);
    ++recorded_sent_;
    if (options_.trace != nullptr)
      options_.trace->record_send(tnow, from, to, id, local);
  }

  WireMessage wire;
  wire.id = id;
  wire.from = from;
  wire.to = to;
  wire.payload = std::move(payload);
  if (!transport_.send(std::move(wire))) {
    ++dropped_;
    if (record) {
      ++recorded_dropped_;
      if (options_.trace != nullptr)
        options_.trace->record_loss(tnow, from, to, id,
                                    LossCause::kFaultDrop);
    }
  }
}

void AgentHost::do_set_timer(ProcessorId pid, ClockTime at, RealTime tnow,
                             ClockTime local) {
  if (at < local) throw Error("AgentHost: timer set for the past");
  builder_.timer_set(pid, local, at);
  if (options_.trace != nullptr)
    options_.trace->record_timer_set(tnow, pid, local, at);

  Pending ev;
  ev.kind = Pending::Kind::kTimer;
  ev.due = agents_[pid].clock.real(at);
  ev.seq = next_seq_++;
  ev.pid = pid;
  ev.timer_at = at;
  push_event(std::move(ev));
}

void AgentHost::schedule_delivery(RealTime at, WireMessage msg) {
  assert(time_.is_virtual());
  Pending ev;
  ev.kind = Pending::Kind::kDelivery;
  // A message cannot be consumed before its receiver starts; it waits,
  // exactly as in the simulator.
  ev.due = std::max(at, agents_[msg.to].clock.start());
  ev.seq = next_seq_++;
  ev.pid = msg.to;
  ev.message =
      Message{msg.id, msg.from, msg.to, std::move(msg.payload)};
  push_event(std::move(ev));
}

}  // namespace cs
