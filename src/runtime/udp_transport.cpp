#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

namespace cs {

namespace {

// Receive-path errors beyond this many in a row mean the socket is gone for
// good (EBADF, shutdown-under-us); the loop then surfaces the failure and
// exits instead of spinning.  With the exponential backoff below the loop
// gives up after ~250 ms of a persistent error.
constexpr int kMaxConsecutiveRecvErrors = 8;

}  // namespace

std::size_t UdpTransport::max_payload_doubles() {
  return net::max_full_doubles();
}

UdpTransport::UdpTransport(std::size_t agents, UdpTransportOptions options)
    : options_(std::move(options)), endpoints_(agents) {
  // Validate the bind address up front: a typo is a loud cs::Error here,
  // not a silent loopback fallback discovered in production.
  bind_ip_ = net::parse_ipv4(options_.bind_address);
  if (options_.recv_buffer_bytes < net::kHeaderBytes)
    throw Error("UdpTransport: recv_buffer_bytes smaller than a frame header");
}

UdpTransport::~UdpTransport() {
  stop();
  for (Endpoint& ep : endpoints_)
    if (ep.fd >= 0 && !ep.injected_close) ::close(ep.fd);
}

void UdpTransport::close_endpoint(ProcessorId pid) {
  if (pid >= endpoints_.size())
    throw Error("UdpTransport: endpoint id out of range");
  Endpoint& ep = endpoints_[pid];
  if (ep.fd < 0 || ep.injected_close) return;
  ::close(ep.fd);
  // Keep the stale fd number: the receive loop must see the descriptor
  // vanish (POLLNVAL), not silently poll a negative fd forever.
  ep.injected_close = true;
}

void UdpTransport::open(ProcessorId pid, DeliverFn sink) {
  if (pid >= endpoints_.size())
    throw Error("UdpTransport: endpoint id out of range");
  Endpoint& ep = endpoints_[pid];
  if (ep.fd >= 0) throw Error("UdpTransport: endpoint opened twice");

  net::SocketAddress addr{bind_ip_, 0};
  ep.fd = net::open_udp_socket(addr);  // binds, resolves the ephemeral port
  // Sends target the bound address; a wildcard bind is reachable via
  // loopback.
  if (addr.ip == INADDR_ANY) addr.ip = INADDR_LOOPBACK;
  ep.addr = addr;
  ep.sink = std::move(sink);
}

net::SocketAddress UdpTransport::address_of(ProcessorId pid) const {
  if (pid >= endpoints_.size())
    throw Error("UdpTransport: endpoint id out of range");
  return endpoints_[pid].addr;
}

std::uint16_t UdpTransport::port_of(ProcessorId pid) const {
  return address_of(pid).port;
}

void UdpTransport::start() {
  if (running_.exchange(true)) return;
  for (std::size_t pid = 0; pid < endpoints_.size(); ++pid) {
    if (endpoints_[pid].fd < 0)
      throw Error("UdpTransport: start() before all endpoints opened");
    endpoints_[pid].reader = std::thread(
        [this, pid] { recv_loop(static_cast<ProcessorId>(pid)); });
  }
}

void UdpTransport::stop() {
  if (!running_.exchange(false)) return;
  for (Endpoint& ep : endpoints_)
    if (ep.reader.joinable()) ep.reader.join();
}

bool UdpTransport::send(WireMessage msg) {
  if (msg.from >= endpoints_.size() || msg.to >= endpoints_.size())
    throw Error("UdpTransport: send endpoint out of range");
  if (msg.payload.data.size() > net::max_full_doubles())
    return false;  // would exceed one datagram

  net::FullMessage full;
  full.id = msg.id;
  full.from = msg.from;
  full.to = msg.to;
  full.tag = msg.payload.tag;
  full.data.assign(msg.payload.data.begin(), msg.payload.data.end());
  const std::vector<std::uint8_t> buf =
      net::encode(net::Frame{std::move(full)});

  sockaddr_in dst;
  net::to_sockaddr(endpoints_[msg.to].addr, dst);
  const ssize_t sent =
      ::sendto(endpoints_[msg.from].fd, buf.data(), buf.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
  if (sent != static_cast<ssize_t>(buf.size())) return false;
  metrics_increment(metrics_, "runtime.udp.bytes_sent", buf.size());
  metrics_increment(metrics_, "runtime.udp.datagrams_sent");
  return true;
}

bool UdpTransport::note_recv_error(ProcessorId pid, const char* what, int err,
                                   int& consecutive) {
  metrics_increment(metrics_, "runtime.udp.poll_error");
  if (++consecutive >= kMaxConsecutiveRecvErrors) {
    metrics_increment(metrics_, "runtime.udp.endpoint_failed");
    failed_.fetch_add(1, std::memory_order_release);
    if (on_error_)
      on_error_(pid, std::string("UdpTransport endpoint ") +
                         std::to_string(pid) + ": " + what +
                         " failed persistently (errno " +
                         std::to_string(err) + ")");
    return false;
  }
  // Bounded exponential backoff: a persistent error (EBADF after the fd
  // vanished, say) must not busy-spin the thread between retries.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(1L << std::min(consecutive, 6)));
  return true;
}

void UdpTransport::recv_loop(ProcessorId pid) {
  Endpoint& ep = endpoints_[pid];
  std::vector<std::uint8_t> buf(options_.recv_buffer_bytes);
  int consecutive_errors = 0;
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{ep.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 50 /*ms*/);
    if (ready < 0) {
      if (errno == EINTR) continue;  // benign signal: re-check running_
      if (!note_recv_error(pid, "poll", errno, consecutive_errors)) return;
      continue;
    }
    if (ready == 0) continue;  // timeout: re-check running_
    if (pfd.revents & (POLLERR | POLLNVAL)) {
      // POLLNVAL is how a closed-under-us fd manifests: poll() "succeeds"
      // instantly with no data — the shape of the historical busy-spin.
      const int err = (pfd.revents & POLLNVAL) ? EBADF : EIO;
      if (!note_recv_error(pid, "poll-revents", err, consecutive_errors))
        return;
      continue;
    }
    // MSG_TRUNC makes recvfrom report the datagram's REAL size even when
    // it exceeded the buffer — the only reliable truncation signal UDP
    // offers.
    const ssize_t got = ::recvfrom(ep.fd, buf.data(), buf.size(), MSG_TRUNC,
                                   nullptr, nullptr);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (!note_recv_error(pid, "recvfrom", errno, consecutive_errors))
        return;
      continue;
    }
    consecutive_errors = 0;
    if (static_cast<std::size_t>(got) > buf.size()) {
      // Truncated: the kernel discarded the tail; decoding the torso would
      // at best yield a short-frame error and at worst a wrong-but-valid
      // prefix.  Drop and count.
      metrics_increment(metrics_, "runtime.udp.recv_truncated");
      continue;
    }
    metrics_increment(metrics_, "runtime.udp.bytes_received",
                      static_cast<std::uint64_t>(got));

    const net::DecodeResult result = net::decode(std::span<const std::uint8_t>(
        buf.data(), static_cast<std::size_t>(got)));
    if (!result.ok()) {
      metrics_increment(metrics_, "runtime.udp.decode_error");
      continue;
    }
    const auto* full = std::get_if<net::FullMessage>(&result.frame.body);
    if (full == nullptr) {
      // A valid compact frame aimed at the wrong port; this transport
      // speaks Full only.
      metrics_increment(metrics_, "runtime.udp.unexpected_frame");
      continue;
    }
    if (full->to != pid || full->from >= endpoints_.size()) {
      // Any local process can reach this port: a frame for another
      // endpoint, or from no agent, is never dispatched.
      metrics_increment(metrics_, "runtime.udp.misaddressed");
      continue;
    }

    WireMessage msg;
    msg.id = full->id;
    msg.from = full->from;
    msg.to = full->to;
    msg.payload.tag = full->tag;
    msg.payload.data = full->data;
    if (ep.sink) ep.sink(std::move(msg));
  }
}

}  // namespace cs
