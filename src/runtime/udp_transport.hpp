// Real datagram transport: one AF_INET UDP socket per agent.
//
// This is the production-shaped path of the runtime — real sockets, real
// kernel queues, real (tiny) localhost delays, one receive thread per
// endpoint.  Ports are ephemeral: every socket binds port 0 in open() and
// the actual port is learned via getsockname(), so parallel test runs never
// collide.  start() publishes the pid→address table and spawns the receive
// threads; stop() flags them down and they exit on their poll timeout.
//
// The wire format is chronosync-wire v1 (net/wire.hpp): every WireMessage
// travels as one canonical Full frame — explicit framing, versioned header,
// varint ids, doubles as exact little-endian bit patterns.  A frame encoded
// here decodes identically anywhere (cs_syncd --serve, the multihost
// daemons, another architecture); the old memcpy'd struct-layout datagrams
// are gone.  Inbound datagrams that do not decode are dropped and counted
// ("runtime.udp.decode_error"), truncated ones likewise
// ("runtime.udp.recv_truncated"), and so are frames not addressed to the
// receiving endpoint or not from an agent ("runtime.udp.misaddressed") —
// never delivered, never UB.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "net/address.hpp"
#include "runtime/transport.hpp"

namespace cs {

struct UdpTransportOptions {
  /// Bind address for every endpoint, parsed with net::parse_ipv4 ("*" =
  /// INADDR_ANY).  Invalid input throws cs::Error at construction — the
  /// transport never silently falls back to loopback.
  std::string bind_address{"127.0.0.1"};
  /// Receive buffer per endpoint.  Datagrams larger than this surface as
  /// MSG_TRUNC and are dropped + counted, not decoded.  The default fits
  /// any legal datagram; tests shrink it to exercise the truncation path.
  std::size_t recv_buffer_bytes{65507};
};

class UdpTransport final : public Transport {
 public:
  /// Invoked (on the endpoint's receive thread) when that endpoint's
  /// receive loop gives up after persistent socket errors.
  using ErrorFn = std::function<void(ProcessorId, const std::string&)>;

  /// `agents` endpoints, ids 0..agents-1.  Throws cs::Error on a malformed
  /// bind address or a recv buffer too small for any frame.
  explicit UdpTransport(std::size_t agents, UdpTransportOptions options = {});
  ~UdpTransport() override;

  void open(ProcessorId pid, DeliverFn sink) override;
  void start() override;
  void stop() override;
  bool send(WireMessage msg) override;
  const char* name() const override { return "udp"; }

  /// Error-path instrumentation sink ("runtime.udp.poll_error",
  /// "runtime.udp.endpoint_failed", "runtime.udp.recv_truncated",
  /// "runtime.udp.decode_error", "runtime.udp.misaddressed", byte
  /// counters).  Must outlive the transport; set before start().
  /// nullptr = off.
  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  /// Failure notification for the host; set before start().
  void set_error_handler(ErrorFn handler) { on_error_ = std::move(handler); }

  /// Endpoints whose receive loop shut down on a persistent socket error
  /// (poll/recvfrom failing repeatedly — EBADF, POLLNVAL, ...).  A healthy
  /// transport reports 0 for its whole lifetime.
  std::size_t failed_endpoints() const {
    return failed_.load(std::memory_order_acquire);
  }

  /// Failure injection for tests and operators: closes the endpoint's
  /// socket out from under its receive loop.  The stale fd number is left
  /// in place so the loop observes exactly what a vanished descriptor
  /// produces (POLLNVAL / EBADF); the destructor will not double-close it.
  void close_endpoint(ProcessorId pid);

  /// Bound address of an endpoint (valid after its open()).
  net::SocketAddress address_of(ProcessorId pid) const;

  /// Bound port of an endpoint (valid after its open()).
  std::uint16_t port_of(ProcessorId pid) const;

  /// Largest payload (in doubles) that fits one datagram, under the wire
  /// codec's worst-case framing overhead (net::max_full_doubles).
  static std::size_t max_payload_doubles();

 private:
  void recv_loop(ProcessorId pid);

  /// Accounts one receive-path error: bumps the poll_error metric, applies
  /// bounded exponential backoff, and — after kMaxConsecutiveRecvErrors in
  /// a row — marks the endpoint failed, notifies the host, and returns
  /// false to terminate the loop.
  bool note_recv_error(ProcessorId pid, const char* what, int err,
                       int& consecutive);

  struct Endpoint {
    int fd{-1};
    net::SocketAddress addr;
    DeliverFn sink;
    std::thread reader;
    bool injected_close{false};
  };

  UdpTransportOptions options_;
  std::uint32_t bind_ip_{0};  ///< host order, parsed once in the ctor
  std::vector<Endpoint> endpoints_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> failed_{0};
  Metrics* metrics_{nullptr};
  ErrorFn on_error_;
};

}  // namespace cs
