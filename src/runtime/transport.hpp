// The transport abstraction: how live agents' datagrams travel.
//
// A Transport moves WireMessages between agent endpoints opened on it.  The
// runtime keeps the surface deliberately datagram-shaped — unreliable,
// unordered, fire-and-forget — because that is the §7 protocol's actual
// requirement (probes whose loss merely starves an estimator) and because
// it keeps the two implementations honest equals:
//
//   * LoopbackTransport (loopback.hpp) — in-process bus with per-link
//     sampled delays and injectable drop.  Deterministic under a
//     VirtualTimeBase (delivery scheduling is delegated to the host's
//     event heap via VirtualScheduler); threaded with real sleeps under a
//     WallTimeBase.
//   * UdpTransport (udp_transport.hpp) — real AF_INET datagram sockets
//     over 127.0.0.1, one receive thread per agent.
//
// Threading contract: open() all endpoints, then start(), then send() from
// the host dispatch thread only.  Deliver callbacks may arrive on
// transport-owned threads (threaded modes) — hosts enqueue into a mailbox
// and dispatch on their own thread — or inline inside send() scheduling
// (virtual mode).  stop() joins all transport threads; no callback runs
// after it returns.
#pragma once

#include <functional>

#include "model/ids.hpp"
#include "sim/event.hpp"

namespace cs {

/// A datagram on the wire: the protocol payload plus addressing and the
/// globally unique message id the host assigned at send time.
struct WireMessage {
  MessageId id{0};
  ProcessorId from{0};
  ProcessorId to{0};
  Payload payload;
};

/// The scheduling capability a virtual-time transport borrows from its
/// host: instead of sleeping, it schedules the delivery onto the host's
/// deterministic event heap.
class VirtualScheduler {
 public:
  virtual ~VirtualScheduler() = default;
  virtual void schedule_delivery(RealTime at, WireMessage msg) = 0;
};

class Transport {
 public:
  using DeliverFn = std::function<void(WireMessage)>;

  virtual ~Transport() = default;

  /// Register the delivery sink for one endpoint.  All endpoints must be
  /// opened before start().
  virtual void open(ProcessorId pid, DeliverFn sink) = 0;

  virtual void start() {}

  /// Stops delivery and joins any transport threads.  Idempotent.
  virtual void stop() {}

  /// Hand a datagram to the transport, which takes it over: a virtual-time
  /// loopback moves it on into the host's heap, so a flood hop never copies
  /// its payload.  Returns false when the transport dropped it locally
  /// (injected loss, serialization overflow) — the caller records the loss;
  /// a true return is *not* a delivery guarantee (datagram semantics).
  virtual bool send(WireMessage msg) = 0;

  virtual const char* name() const = 0;

  /// True when deliveries are scheduled inline through a VirtualScheduler
  /// (no transport threads, deterministic); false when they arrive on
  /// transport threads under wall time.
  virtual bool inline_delivery() const { return false; }
};

}  // namespace cs
