// AgentHost: the live-runtime counterpart of the simulator's event loop.
//
// The host owns n automata (the same Automaton interface the simulator
// runs), their clocks, and the dispatch loop that feeds them transport
// deliveries, starts and timers.  Two modes, chosen by the TimeBase:
//
//   * virtual time — the host is the VirtualScheduler a deterministic
//     LoopbackTransport schedules into: one thread, one event heap, time
//     advances to each event's due instant.  Event order is a pure
//     function of (model, factory, seed), so two runs are identical —
//     the determinism contract docs/RUNTIME.md spells out.
//   * wall time — deliveries arrive asynchronously from transport threads
//     into a mailbox; the run loop stamps each with its enqueue instant
//     (the "runtime.ingest_latency_seconds" series measures mailbox dwell)
//     and dispatches on one thread, interleaved with due timers.  The loop
//     drains the mailbox in batches — one lock round-trip per burst, not
//     per message (the "runtime.mailbox_batch_size" series tracks burst
//     sizes) — while preserving arrival order and the mailbox-before-
//     timers dispatch priority.
//
// Either way there is exactly ONE dispatch thread, and automata callbacks,
// the view builder and the results sink are only touched from it — the
// concurrency boundary is the mailbox, nothing else.
//
// Clock fence: per dispatch the host computes the processor's clock value
// once and uses that same double for (a) the recorded trace event, (b) the
// online view event, and (c) ctx.now() inside the callback — mirroring the
// simulator, where every action of one dispatch shares now_.  That single
// choice is what makes live corrections bit-comparable to the offline
// pipeline over the recorded views.
//
// Trace parity: with a TraceSink attached the host records sends,
// deliveries, losses and timers exactly like the simulator does, so
// views_from_trace(recorded) == host.views().  trace_filter (when set)
// excludes matching payloads from BOTH the trace and the online views —
// used by the daemon to keep §7 control traffic (reports, corrections)
// out of the analyzed views; see docs/RUNTIME.md for why that is sound.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "runtime/clock.hpp"
#include "runtime/online.hpp"
#include "runtime/transport.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace cs {

struct HostOptions {
  /// Start skew S_p per agent (size must equal the processor count).
  std::vector<Duration> start_offsets;

  /// Recorded into the trace header; also the transport seed by
  /// convention (the host itself draws no randomness).
  std::uint64_t seed{1};

  /// Runaway guard, as in SimOptions.
  std::size_t max_events{1'000'000};

  /// Wall-time budget for the run loop (wall mode only; virtual mode runs
  /// until the event heap drains).
  Duration deadline{30.0};

  /// Optional "runtime.*" counters and ingest-latency series.  The host
  /// counts runtime.dispatched/sent/delivered/dropped itself and adds the
  /// non-zero ones here once, when run() returns.
  Metrics* metrics{nullptr};

  /// Optional trace recording (same TraceSink seam the simulator uses).
  TraceSink* trace{nullptr};

  /// When set, only payloads for which this returns true produce trace and
  /// view events (timers are always recorded).  Null = record everything.
  std::function<bool(const Payload&)> trace_filter;
};

struct RunStats {
  std::size_t dispatched{0};
  /// Wall mode: the deadline expired before the done-predicate held.
  bool timed_out{false};
};

class AgentHost final : public VirtualScheduler {
 public:
  /// `model`, `transport` and `time` must outlive the host.  The transport
  /// must be constructed over the same TimeBase.  Endpoints are opened
  /// here; the caller start()s the transport before run().
  AgentHost(const SystemModel& model, Transport& transport, TimeBase& time,
            HostOptions options);
  ~AgentHost() override;  // Agent is incomplete in the header

  /// Instantiate one automaton per processor and dispatch until quiescence
  /// (virtual mode: heap empty), `done` holds, or the deadline expires.
  /// Single-shot: one run per host.
  RunStats run(const AutomatonFactory& factory,
               const std::function<bool()>& done = {});

  /// The incrementally built views of everything dispatched so far (read
  /// after run() returns).
  std::span<const View> views() const { return builder_.views(); }

  // VirtualScheduler (called by a deterministic transport inside send()):
  void schedule_delivery(RealTime at, WireMessage msg) override;

 private:
  struct Agent;
  class Ctx;

  struct Pending {
    enum class Kind : std::uint8_t { kStart, kDelivery, kTimer } kind{};
    RealTime due{};
    std::uint64_t seq{0};
    ProcessorId pid{0};
    Message message;     // kDelivery
    ClockTime timer_at{};  // kTimer

    bool operator>(const Pending& o) const {
      if (due.sec != o.due.sec) return due.sec > o.due.sec;
      return seq > o.seq;
    }
  };

  void push_event(Pending ev);
  Pending pop_event();
  void publish_counters() const;
  void dispatch(const Pending& ev);
  void do_send(ProcessorId from, ProcessorId to, Payload payload,
               RealTime tnow, ClockTime local);
  void do_set_timer(ProcessorId pid, ClockTime at, RealTime tnow,
                    ClockTime local);
  void run_virtual(const std::function<bool()>& done);
  void run_wall(const std::function<bool()>& done);

  const SystemModel& model_;
  Transport& transport_;
  TimeBase& time_;
  HostOptions options_;

  std::vector<Agent> agents_;
  OnlineViewBuilder builder_;

  // Virtual mode: the single event heap (dispatch thread only), a min-heap
  // on (due, seq) under std::push_heap / std::pop_heap so each popped
  // event is moved out, payload and all.
  std::vector<Pending> heap_;
  std::uint64_t next_seq_{0};

  // Wall mode: transport threads feed the mailbox; timers/starts use the
  // heap above (popped under the same mutex for simplicity).
  struct Inbound {
    WireMessage msg;
    RealTime enqueued{};
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Inbound> mailbox_;

  MessageId next_msg_id_{1};
  // runtime.dispatched/sent/delivered/dropped, published once by
  // publish_counters().  sent and delivered count recorded traffic only;
  // dropped_ counts every transport drop, recorded_dropped_ (the trace's
  // tally) only the recorded ones.
  std::size_t dispatched_{0};
  std::size_t recorded_sent_{0};
  std::size_t dropped_{0};
  std::size_t recorded_delivered_{0};
  std::size_t recorded_dropped_{0};
  std::size_t recorded_timer_fires_{0};
  bool ran_{false};
};

}  // namespace cs
