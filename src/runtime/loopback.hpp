// In-process loopback bus with sampled per-link delays and injectable drop.
//
// The loopback transport is the live runtime's counterpart of the
// simulator's delay layer: each topology link gets an admissible
// DelaySampler built from its declared constraint (make_admissible_sampler)
// and its own RNG stream split from the master seed, so traffic on one link
// never perturbs delays on another (§5.1 locality at the generator level)
// and a fixed seed fixes every delay draw.
//
// Two modes, chosen by the TimeBase handed in:
//   * virtual (deterministic): sends are sampled and handed to the host's
//     VirtualScheduler; the transport owns no threads and the whole run is
//     a deterministic single-threaded event loop.  This is the tier-1 mode
//     whose converged corrections must match the offline pipeline
//     bit-for-bit.
//   * threaded (wall time): a dispatcher thread holds a due-time heap and
//     sleeps until each delivery is due — a real concurrent transport with
//     the same sampled-delay distribution, used to exercise the mailbox /
//     thread-safety paths (and ThreadSanitizer) without sockets.
//
// Injected drop: each datagram is dropped with `drop_probability` from a
// dedicated RNG stream; send() returns false so the host can record the
// loss in the trace (LossCause::kFaultDrop — same bookkeeping as the fault
// injector's drops).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "delaymodel/assignment.hpp"
#include "runtime/clock.hpp"
#include "runtime/transport.hpp"
#include "sim/delay_sampler.hpp"

namespace cs {

struct LoopbackOptions {
  std::uint64_t seed{1};
  /// Typical delay magnitude where constraints leave freedom (same meaning
  /// as SimOptions::delay_scale).
  double delay_scale{0.1};
  /// Probability of dropping each datagram (independent per message).
  double drop_probability{0.0};
};

class LoopbackTransport final : public Transport {
 public:
  /// Virtual mode: `time` must be a VirtualTimeBase and `sched` non-null
  /// (the host); threaded mode: `time` is a WallTimeBase and `sched` is
  /// null.  `model` and `time` must outlive the transport.
  LoopbackTransport(const SystemModel& model, const TimeBase& time,
                    VirtualScheduler* sched, LoopbackOptions options);
  ~LoopbackTransport() override;

  void open(ProcessorId pid, DeliverFn sink) override;
  void start() override;
  void stop() override;
  bool send(WireMessage msg) override;
  const char* name() const override {
    return sched_ != nullptr ? "loopback" : "loopback-threaded";
  }
  bool inline_delivery() const override { return sched_ != nullptr; }

  /// Datagrams dropped by injected loss so far (dispatch-thread reads).
  std::size_t dropped() const { return dropped_; }

 private:
  struct Link {
    std::unique_ptr<DelaySampler> sampler;
    Rng delay_rng;
    Rng drop_rng;
  };

  struct Pending {
    double due;
    std::uint64_t seq;
    WireMessage msg;
    bool operator>(const Pending& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  void dispatcher_loop();

  const SystemModel* model_;
  const TimeBase* time_;
  VirtualScheduler* sched_;
  LoopbackOptions options_;

  std::vector<Link> links_;  // topology link order: model_->direction() / 2
  std::vector<DeliverFn> sinks_;
  std::size_t dropped_{0};
  std::uint64_t seq_{0};

  // Threaded mode only: a min-heap on (due, seq) under std::push_heap /
  // std::pop_heap, so the dispatcher moves each due datagram out.
  std::vector<Pending> heap_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread dispatcher_;
  bool running_{false};
};

}  // namespace cs
