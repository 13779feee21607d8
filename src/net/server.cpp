#include "net/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace cs::net {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool send_now(int fd, const SocketAddress& peer,
              const std::vector<std::uint8_t>& datagram) {
  sockaddr_in dst;
  to_sockaddr(peer, dst);
  const ssize_t sent =
      ::sendto(fd, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
  return sent == static_cast<ssize_t>(datagram.size());
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS;
}

}  // namespace

int open_udp_socket(SocketAddress& addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0)
    throw Error("net: socket() failed for " + to_string(addr) + ": " +
                std::strerror(errno));
  sockaddr_in sa;
  to_sockaddr(addr, sa);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("net: bind(" + to_string(addr) +
                ") failed: " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw Error("net: getsockname(" + to_string(addr) + ") failed");
  }
  addr.port = ntohs(bound.sin_port);
  return fd;
}

SyncServer::SyncServer(SyncServerConfig config)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : steady_seconds),
      local_(config_.listen),
      sessions_(config_.session),
      recv_buf_(kMaxDatagramBytes) {
  fd_ = open_udp_socket(local_);
  loop_.add(fd_, /*want_read=*/true, /*want_write=*/false,
            [this](bool r, bool w) { on_socket(r, w); });
  next_sweep_ = now() + config_.sweep_period.sec;
}

SyncServer::~SyncServer() {
  stop();
  if (fd_ >= 0) ::close(fd_);
}

void SyncServer::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { run_loop(); });
}

void SyncServer::stop() {
  if (!running_.exchange(false)) return;
  loop_.wake();
  if (thread_.joinable()) thread_.join();
}

void SyncServer::run_loop() {
  while (running_.load(std::memory_order_acquire)) step(50);
}

void SyncServer::step(int timeout_ms) {
  loop_.poll_once(timeout_ms);
  const double t = now();
  if (t >= next_sweep_) {
    sweep(t);
    next_sweep_ = t + config_.sweep_period.sec;
  }
}

void SyncServer::sweep(double t) {
  const std::size_t expired = sessions_.expire_idle(t);
  if (expired > 0)
    metrics_increment(config_.metrics, "runtime.net.sessions_expired",
                      expired);
  active_.store(sessions_.size(), std::memory_order_release);
  peak_.store(sessions_.peak_size(), std::memory_order_release);
  metrics_observe(config_.metrics, "runtime.net.sessions_active",
                  static_cast<double>(sessions_.size()));
}

void SyncServer::on_socket(bool readable, bool writable) {
  if (writable) flush_queues();
  if (!readable) return;
  // Drain everything the kernel has: edge-vs-level semantics differ
  // between the backends, so loop until EAGAIN either way.
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof src;
    const ssize_t got =
        ::recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), MSG_TRUNC,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (got < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient error: next wakeup retries
    }
    metrics_increment(config_.metrics, "runtime.net.datagrams_received");
    if (static_cast<std::size_t>(got) > recv_buf_.size()) {
      // MSG_TRUNC: the datagram was larger than the buffer — decoding the
      // torso would be garbage; drop and count.
      metrics_increment(config_.metrics, "runtime.net.recv_truncated");
      continue;
    }
    metrics_increment(config_.metrics, "runtime.net.bytes_received",
                      static_cast<std::uint64_t>(got));
    handle_datagram(from_sockaddr(src),
                    std::span<const std::uint8_t>(
                        recv_buf_.data(), static_cast<std::size_t>(got)));
  }
}

void SyncServer::handle_datagram(const SocketAddress& peer,
                                 std::span<const std::uint8_t> bytes) {
  const double t = now();
  Session* session = sessions_.find_or_create(peer, t);
  if (session == nullptr) {
    metrics_increment(config_.metrics, "runtime.net.sessions_refused");
    return;
  }
  const bool fresh = session->frames_in == 0;

  std::size_t frames = 0;
  bool closed = false;
  while (!bytes.empty()) {
    const DecodeResult result = decode_prefix(bytes);
    if (!result.ok()) {
      metrics_increment(config_.metrics, "runtime.net.decode_error");
      break;  // cannot resynchronize mid-datagram; drop the rest
    }
    ++frames;
    frames_in_.fetch_add(1, std::memory_order_release);
    ++session->frames_in;
    closed = handle_frame(*session, result.frame, t);
    bytes = bytes.subspan(result.consumed);
    // A Bye (or window reject) erased the session; later frames from the
    // same datagram would resurrect it half-initialized.
    if (closed) break;
  }
  metrics_increment(config_.metrics, "runtime.net.frames_received", frames);
  metrics_observe(config_.metrics, "runtime.net.frames_per_datagram",
                  static_cast<double>(frames));
  if (fresh) {
    if (frames == 0) {
      // The peer's first datagram carried no decodable frame: drop the
      // provisional session, so a garbage spray cannot fill the table.
      sessions_.close(peer);
    } else if (!closed) {
      metrics_increment(config_.metrics, "runtime.net.sessions_created");
    }
  }
}

bool SyncServer::handle_frame(Session& session, const Frame& frame,
                              double t) {
  sessions_.touch(session, t);
  const std::int64_t now_ticks = to_ticks(t);

  if (const auto* hello = std::get_if<Hello>(&frame.body)) {
    if (!hello_in_window(hello->clock_ticks, now_ticks)) {
      // Outside the compact-stamp window contract: refuse loudly (metric)
      // rather than bank wrapped timestamps later.
      metrics_increment(config_.metrics, "runtime.net.hello_window_reject");
      sessions_.close(session.peer);
      return true;
    }
    session.state = Session::State::kEstablished;
    session.agent = hello->agent;
    session.hello_skew_ticks = hello->clock_ticks - now_ticks;
    reply(session, Frame{HelloAck{config_.agent, now_ticks}});
    return false;
  }

  if (const auto* probe = std::get_if<ProbeBatch>(&frame.body)) {
    // Echo every sample with the shared arrival stamp; t_reply is this
    // frame's own send stamp, giving the prober a reverse-direction
    // observation for free.
    EchoBatch echo;
    echo.from = config_.agent;
    echo.to = probe->from;
    echo.eseq = session.echo_seq++;
    echo.t_reply24 = compress24(now_ticks);
    echo.samples.reserve(probe->samples.size());
    const std::uint32_t recv24 = compress24(now_ticks);
    for (const ProbeSample& s : probe->samples)
      echo.samples.push_back(EchoSample{s.seq, s.t_send24, recv24});
    reply(session, Frame{std::move(echo)});
    return false;
  }

  if (std::get_if<Bye>(&frame.body) != nullptr) {
    sessions_.close(session.peer);
    return true;
  }

  // Full / EchoBatch / HelloAck addressed at an echo server: tolerated
  // (version-1 clients may piggyback), counted, not answered.
  metrics_increment(config_.metrics, "runtime.net.frames_unhandled");
  return false;
}

void SyncServer::reply(Session& session, const Frame& frame) {
  std::vector<std::uint8_t> datagram = encode(frame);
  ++session.frames_out;
  // Fast path: the socket usually takes the reply synchronously.
  if (session.send_queue.empty() &&
      send_now(fd_, session.peer, datagram)) {
    metrics_increment(config_.metrics, "runtime.net.bytes_sent",
                      datagram.size());
    metrics_increment(config_.metrics, "runtime.net.frames_sent");
    metrics_increment(config_.metrics, "runtime.net.datagrams_sent");
    return;
  }
  if (!session.send_queue.empty() || would_block()) {
    if (!sessions_.enqueue(session, std::move(datagram))) {
      metrics_increment(config_.metrics,
                        "runtime.net.backpressure_dropped");
      return;
    }
    if (!write_interest_) {
      write_interest_ = true;
      loop_.modify(fd_, /*want_read=*/true, /*want_write=*/true);
    }
    return;
  }
  // Hard send error (peer gone, network down): counted, frame dropped.
  metrics_increment(config_.metrics, "runtime.net.send_error");
}

void SyncServer::flush_queues() {
  bool blocked = false;
  sessions_.for_each([&](Session& session) {
    while (!blocked && !session.send_queue.empty()) {
      const std::vector<std::uint8_t>& head = session.send_queue.front();
      if (send_now(fd_, session.peer, head)) {
        metrics_increment(config_.metrics, "runtime.net.bytes_sent",
                          head.size());
        metrics_increment(config_.metrics, "runtime.net.frames_sent");
        metrics_increment(config_.metrics, "runtime.net.datagrams_sent");
        sessions_.dequeue(session);
      } else if (would_block()) {
        blocked = true;
      } else {
        metrics_increment(config_.metrics, "runtime.net.send_error");
        sessions_.dequeue(session);  // unsendable: drop and move on
      }
    }
  });
  if (!blocked && sessions_.total_queued_bytes() == 0 && write_interest_) {
    write_interest_ = false;
    loop_.modify(fd_, /*want_read=*/true, /*want_write=*/false);
  }
}

}  // namespace cs::net
