// probe-serve: a burst of 2,000 probe round trips over the loopback
// interface against a SyncServer with a Metrics sink (as cs_syncd --serve
// runs it), stepped with step(0) on the caller's thread.  Each round trip
// sends one 8-sample ProbeBatch from one of 4 sessions set up in advance
// and waits for its EchoBatch.  Timing bursts, not single ~10 µs round
// trips, keeps every timed interval in the milliseconds.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/server.hpp"
#include "net/timestamp.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace cs;
using namespace cs::net;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kRoundTrips = 2000;
constexpr std::size_t kSamples = 8;
constexpr std::uint32_t kServerAgent = 9000;
constexpr double kReplyTimeout = 1.0;  // seconds

// The server's default clock.
double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0)) {
    if (fd_ < 0) throw std::runtime_error("probe-serve: socket() failed");
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

struct Target {
  std::unique_ptr<SyncServer> server;
  sockaddr_in address{};
};

class ProbeServe final : public Workload {
 public:
  void setup(std::uint64_t seed, bool /*corrupt*/, Tracer* tracer) override {
    clients_.clear();
    with_sink_.server.reset();
    without_sink_.server.reset();
    sink_ = std::make_unique<Metrics>();

    open(with_sink_, sink_.get());
    // The traced run also serves alternating bursts from a server without
    // a sink, so the sink's share of a step shows as a difference.
    if (tracer != nullptr) open(without_sink_, nullptr);
    for (std::size_t c = 0; c < kSessions; ++c) {
      clients_.push_back(std::make_unique<Socket>());
      hello(with_sink_, c);
      if (tracer != nullptr) hello(without_sink_, c);
    }

    Rng rng(seed);
    order_.resize(kRoundTrips);
    for (std::size_t& c : order_) c = rng.uniform_int(kSessions);
    next_seq_ = rng.uniform_int(std::uint64_t{1} << 32);
  }

  bool op(Tracer* tracer) override {
    const std::uint64_t frames_before =
        sink_->counter("runtime.net.frames_received");
    for (const std::size_t c : order_)
      if (!round_trip(with_sink_, c, tracer, false)) return false;
    frames_per_op_ =
        sink_->counter("runtime.net.frames_received") - frames_before;
    return frames_per_op_ == kRoundTrips;
  }

  bool shadow(Tracer& tracer) override {
    Span burst(&tracer, "net.burst_without_sink");
    for (const std::size_t c : order_)
      if (!round_trip(without_sink_, c, &tracer, true)) return false;
    return true;
  }

  void layer_metrics(const Tracer& tracer, Values& out) const override {
    const auto per_datagram_us = [&](const char* name) {
      return tracer.median_ms(name) * 1e3 / static_cast<double>(kRoundTrips);
    };
    out["net.server_step_us"] = per_datagram_us("net.server_step");
    out["common.metrics_us"] = per_datagram_us("net.server_step") -
                               per_datagram_us("net.server_step_without_sink");
    out["net.encode_us"] = per_datagram_us("net.encode");
    out["net.decode_us"] = per_datagram_us("net.decode");
    out["net.client_io_us"] = per_datagram_us("net.client_io");
    out["net.frames_received"] = static_cast<double>(frames_per_op_);
    out["net.bytes_per_datagram"] =
        probes_ > 0 ? static_cast<double>(bytes_sent_) / probes_ : 0.0;
    out["net.decode_errors"] = static_cast<double>(
        sink_->counter("runtime.net.decode_error") + client_decode_errors_);
    out["net.backpressure_dropped"] = static_cast<double>(
        sink_->counter("runtime.net.backpressure_dropped"));
    out["net.echo_ratio"] =
        probes_ > 0 ? static_cast<double>(echoes_) / probes_ : 0.0;
  }

 private:
  static void open(Target& target, Metrics* sink) {
    SyncServerConfig config;
    config.agent = kServerAgent;
    config.metrics = sink;
    target.server = std::make_unique<SyncServer>(std::move(config));
    to_sockaddr(target.server->local_address(), target.address);
  }

  static std::uint32_t agent(std::size_t c) {
    return static_cast<std::uint32_t>(c + 1);
  }

  // Steps the server until client c holds a reply datagram; returns its
  // size, or -1 on a socket error or timeout.
  ssize_t await_reply(Target& target, std::size_t c, Tracer* step_tracer,
                      const char* step_name, Tracer* io_tracer) {
    double deadline = 0.0;
    for (;;) {
      {
        Span span(step_tracer, step_name);
        target.server->step(0);
      }
      ssize_t got = -1;
      {
        Span span(io_tracer, "net.client_io");
        got = ::recv(clients_[c]->fd(), in_.data(), in_.size(), 0);
      }
      if (got >= 0) return got;
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return -1;
      const double now = steady_seconds();
      if (deadline == 0.0) deadline = now + kReplyTimeout;
      if (now > deadline) return -1;
    }
  }

  bool send(Target& target, std::size_t c,
            const std::vector<std::uint8_t>& bytes, Tracer* tracer) {
    Span span(tracer, "net.client_io");
    return ::sendto(clients_[c]->fd(), bytes.data(), bytes.size(), 0,
                    reinterpret_cast<const sockaddr*>(&target.address),
                    sizeof target.address) ==
           static_cast<ssize_t>(bytes.size());
  }

  void hello(Target& target, std::size_t c) {
    const std::vector<std::uint8_t> bytes =
        encode(Frame{Hello{agent(c), to_ticks(steady_seconds())}});
    const ssize_t got = send(target, c, bytes, nullptr)
                            ? await_reply(target, c, nullptr, "", nullptr)
                            : -1;
    if (got < 0)
      throw std::runtime_error("probe-serve: no reply to Hello");
    const DecodeResult reply = decode(std::span<const std::uint8_t>(
        in_.data(), static_cast<std::size_t>(got)));
    if (!reply.ok() || std::get_if<HelloAck>(&reply.frame.body) == nullptr)
      throw std::runtime_error("probe-serve: Hello not acknowledged");
  }

  // One probe round trip from client c.  `shadow` times only the server
  // step, under its own span name.
  bool round_trip(Target& target, std::size_t c, Tracer* tracer, bool shadow) {
    Tracer* client_tracer = shadow ? nullptr : tracer;
    const std::uint64_t first = next_seq_;
    next_seq_ += kSamples;
    {
      Span span(client_tracer, "net.encode");
      ProbeBatch probe;
      probe.from = agent(c);
      probe.to = kServerAgent;
      const std::uint32_t stamp = compress24(to_ticks(steady_seconds()));
      for (std::size_t j = 0; j < kSamples; ++j)
        probe.samples.push_back(ProbeSample{first + j, stamp});
      out_.clear();
      encode(Frame{std::move(probe)}, out_);
    }
    if (!send(target, c, out_, client_tracer)) return false;
    const ssize_t got = await_reply(
        target, c, tracer,
        shadow ? "net.server_step_without_sink" : "net.server_step",
        client_tracer);
    if (got < 0) return false;
    DecodeResult reply;
    {
      Span span(client_tracer, "net.decode");
      reply = decode(std::span<const std::uint8_t>(
          in_.data(), static_cast<std::size_t>(got)));
    }
    if (shadow) return reply.ok();
    ++probes_;
    bytes_sent_ += out_.size();
    if (!reply.ok()) {
      ++client_decode_errors_;
      return false;
    }
    const auto* echo = std::get_if<EchoBatch>(&reply.frame.body);
    if (echo == nullptr || echo->to != agent(c) ||
        echo->samples.size() != kSamples)
      return false;
    for (std::size_t j = 0; j < kSamples; ++j)
      if (echo->samples[j].seq != first + j) return false;
    ++echoes_;
    return true;
  }

  // Declared first: the servers hold a pointer to the sink.
  std::unique_ptr<Metrics> sink_;
  Target with_sink_;
  Target without_sink_;
  std::vector<std::unique_ptr<Socket>> clients_;
  std::vector<std::size_t> order_;
  std::uint64_t next_seq_{0};
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(kMaxDatagramBytes);
  std::uint64_t frames_per_op_{0};
  std::uint64_t probes_{0};
  std::uint64_t echoes_{0};
  std::uint64_t bytes_sent_{0};
  std::uint64_t client_decode_errors_{0};
};

}  // namespace

std::unique_ptr<Workload> make_probe_serve() {
  return std::make_unique<ProbeServe>();
}

}  // namespace bench
