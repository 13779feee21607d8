// SyncServer: the multi-client synchronization daemon core.
//
// One process, one UDP socket, one event loop — multiplexing thousands of
// concurrent agent sessions where the runtime's UdpTransport spends a
// thread per endpoint.  This is the "cs_syncd --listen --serve" engine and
// the ≥1000-session scale target BENCH_net.json measures.
//
// Service contract (the probe side of §7 as a network service):
//   * Hello        → verify the 24-bit clock-window assumption against the
//                    full-width stamp, establish the session, HelloAck.
//   * ProbeBatch   → stamp arrival once per datagram, echo every sample
//                    back in one EchoBatch (compact stamps) — the N:M
//                    amortization: one reply datagram per probe datagram
//                    regardless of how many samples it carried.
//   * Bye          → close the session.
//   * anything malformed → typed decode error, counted, dropped; the
//                    daemon never throws on wire input.
//
// All replies go through the session's backpressure-aware send queue
// (session.hpp): synchronous send when the socket takes it, bounded
// queueing behind EPOLLOUT when it does not, counted drops past the
// budget.  Idle sessions are swept on a timer.  Metrics land under
// "runtime.net.*" (docs/NET.md lists the full table).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/time.hpp"
#include "net/event_loop.hpp"
#include "net/session.hpp"
#include "net/wire.hpp"

namespace cs::net {

struct SyncServerConfig {
  /// Bind address; port 0 = ephemeral (read back via local_address()).
  SocketAddress listen = loopback(0);
  /// Agent id this server announces in HelloAck frames.
  std::uint32_t agent{0};
  SessionConfig session;
  /// Idle-session sweep cadence.
  Duration sweep_period{1.0};
  /// Local clock in seconds (monotonic by default; injectable for tests).
  std::function<double()> clock;
  /// Metric sink; must outlive the server.  nullptr = off.
  Metrics* metrics{nullptr};
};

class SyncServer {
 public:
  /// Binds and registers the socket.  Throws cs::Error on bind/socket
  /// failure or malformed configuration.
  explicit SyncServer(SyncServerConfig config);
  ~SyncServer();

  SyncServer(const SyncServer&) = delete;
  SyncServer& operator=(const SyncServer&) = delete;

  /// The bound address with the kernel-resolved port.
  SocketAddress local_address() const { return local_; }

  /// Spawns the loop thread.  stop() joins it; idempotent both ways.
  void start();
  void stop();

  /// Single-threaded alternative to start(): one loop iteration (wait up
  /// to timeout, dispatch, sweep if due).  Tests and embedders drive this
  /// directly instead of spawning the thread.
  void step(int timeout_ms = 50);

  std::size_t active_sessions() const {
    return active_.load(std::memory_order_acquire);
  }
  std::size_t peak_sessions() const {
    return peak_.load(std::memory_order_acquire);
  }
  std::uint64_t frames_received() const {
    return frames_in_.load(std::memory_order_acquire);
  }

 private:
  void on_socket(bool readable, bool writable);
  void handle_datagram(const SocketAddress& peer,
                       std::span<const std::uint8_t> bytes);
  /// Returns true when the frame closed (erased) the session.
  bool handle_frame(Session& session, const Frame& frame, double now);
  /// Encodes and sends (or queues) one reply datagram to the session.
  void reply(Session& session, const Frame& frame);
  void flush_queues();
  void sweep(double now);
  void run_loop();
  double now() const { return clock_(); }

  SyncServerConfig config_;
  std::function<double()> clock_;
  SocketAddress local_;
  int fd_{-1};
  EventLoop loop_;
  SessionTable sessions_;
  std::vector<std::uint8_t> recv_buf_;
  double next_sweep_{0.0};
  bool write_interest_{false};

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> frames_in_{0};
};

/// Opens a nonblocking UDP socket bound to `addr` (shared by the server,
/// the multihost daemon and the transports).  Returns the fd and rewrites
/// `addr.port` with the kernel-resolved port.  Throws cs::Error with the
/// rendered address on failure.
int open_udp_socket(SocketAddress& addr);

}  // namespace cs::net
