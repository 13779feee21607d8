#include "net/daemon.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "core/local_estimates.hpp"
#include "delaymodel/link_stats.hpp"
#include "net/server.hpp"

namespace cs::net {

namespace {

double realtime_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Pending echo samples for one peer are flushed once this many accumulate;
/// fewer piggyback on the next probe datagram to that peer.
constexpr std::size_t kEchoFlushBatch = 8;

}  // namespace

SyncOutcome synchronize_from_extremes(const SystemModel& model,
                                      std::span<const ReportedExtremes> reports,
                                      ProcessorId root) {
  LinkStats stats(model);
  for (const ReportedExtremes& report : reports) add_extremes(stats, report);
  SyncOptions options;
  options.root = root;
  return synchronize_mls(mls_graph_from_stats(model, stats), options);
}

NetDaemon::NetDaemon(NetDaemonConfig config)
    : config_(std::move(config)),
      base_clock_(config_.base_clock ? config_.base_clock : realtime_seconds),
      recv_buf_(kMaxDatagramBytes) {
  if (config_.model == nullptr) throw Error("NetDaemon: model is required");
  require_extreme_sufficient(*config_.model, "NetDaemon");
  n_ = config_.model->processor_count();
  if (config_.peers.size() != n_)
    throw Error("NetDaemon: peers.size() != processor_count()");
  if (config_.id >= n_ || config_.leader >= n_)
    throw Error("NetDaemon: id/leader out of range");
  const double last_probe =
      config_.warmup.sec +
      static_cast<double>(config_.rounds) * config_.spacing.sec;
  if (config_.report_at.sec <= last_probe)
    throw Error("NetDaemon: report_at must follow the last probe round");
  if (config_.deadline.sec <= config_.report_at.sec)
    throw Error("NetDaemon: deadline must follow report_at");
  const double now = local_clock();
  if (now >= config_.report_at.sec)
    throw Error("NetDaemon: shared base is already past the boundary (clock " +
                std::to_string(now) + "s)");

  peers_.resize(n_);
  const auto adjacency = config_.model->topology().adjacency();
  for (const NodeId q : adjacency[config_.id]) {
    peers_[q].neighbor = true;
    neighbors_.push_back(q);
  }

  local_ = config_.peers[config_.id];
  fd_ = open_udp_socket(local_);
  loop_.add(fd_, /*want_read=*/true, /*want_write=*/false,
            [this](bool r, bool w) { on_socket(r, w); });
}

NetDaemon::~NetDaemon() {
  if (fd_ >= 0) ::close(fd_);
}

void NetDaemon::send_frames(ProcessorId to, std::span<const Frame> frames) {
  std::vector<std::uint8_t> datagram;
  for (const Frame& frame : frames) encode(frame, datagram);
  sockaddr_in dst;
  to_sockaddr(config_.peers[to], dst);
  const ssize_t sent =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
  if (sent != static_cast<ssize_t>(datagram.size())) {
    // Retries at the protocol layer recover; count and move on.
    metrics_increment(config_.metrics, "runtime.net.send_error");
    return;
  }
  metrics_increment(config_.metrics, "runtime.net.datagrams_sent");
  metrics_increment(config_.metrics, "runtime.net.frames_sent",
                    frames.size());
  metrics_increment(config_.metrics, "runtime.net.bytes_sent",
                    datagram.size());
}

void NetDaemon::send_probe_round(double now) {
  for (const ProcessorId q : neighbors_) {
    std::vector<Frame> frames;
    if (!peers_[q].hello_acked)
      frames.push_back(Frame{Hello{config_.id, to_ticks(now)}});
    ProbeBatch probe;
    probe.from = config_.id;
    probe.to = q;
    probe.samples.push_back(
        ProbeSample{next_seq_++, compress24(to_ticks(local_clock()))});
    frames.push_back(Frame{std::move(probe)});
    ++report_.probes_sent;
    // Piggyback pending echoes: probe + echo share the datagram.
    if (!peers_[q].pending_echo.empty()) {
      EchoBatch echo;
      echo.from = config_.id;
      echo.to = q;
      echo.eseq = peers_[q].echo_seq++;
      echo.t_reply24 = compress24(to_ticks(local_clock()));
      echo.samples = std::move(peers_[q].pending_echo);
      peers_[q].pending_echo.clear();
      frames.push_back(Frame{std::move(echo)});
    }
    send_frames(q, frames);
  }
}

void NetDaemon::flush_echoes(ProcessorId q, double now) {
  (void)now;
  if (peers_[q].pending_echo.empty()) return;
  EchoBatch echo;
  echo.from = config_.id;
  echo.to = q;
  echo.eseq = peers_[q].echo_seq++;
  echo.t_reply24 = compress24(to_ticks(local_clock()));
  echo.samples = std::move(peers_[q].pending_echo);
  peers_[q].pending_echo.clear();
  send_frame(q, Frame{std::move(echo)});
}

void NetDaemon::bank(ProcessorId peer, double delay) {
  incoming_[peer].add(delay);
}

void NetDaemon::on_socket(bool readable, bool writable) {
  (void)writable;  // sends are fire-and-forget; retries cover EAGAIN
  if (!readable) return;
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof src;
    const ssize_t got =
        ::recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), MSG_TRUNC,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (got < 0) {
      if (errno == EINTR) continue;
      return;
    }
    metrics_increment(config_.metrics, "runtime.net.datagrams_received");
    if (static_cast<std::size_t>(got) > recv_buf_.size()) {
      metrics_increment(config_.metrics, "runtime.net.recv_truncated");
      continue;
    }
    metrics_increment(config_.metrics, "runtime.net.bytes_received",
                      static_cast<std::uint64_t>(got));
    handle_datagram(std::span<const std::uint8_t>(
        recv_buf_.data(), static_cast<std::size_t>(got)));
  }
}

void NetDaemon::handle_datagram(std::span<const std::uint8_t> bytes) {
  // One arrival stamp per datagram: every frame (and every probe sample)
  // in it shares the receive time, exactly like the batched encoding
  // shares the send stamp.
  const double now = local_clock();
  while (!bytes.empty()) {
    const DecodeResult result = decode_prefix(bytes);
    if (!result.ok()) {
      metrics_increment(config_.metrics, "runtime.net.decode_error");
      return;
    }
    metrics_increment(config_.metrics, "runtime.net.frames_received");
    handle_frame(result.frame, now);
    bytes = bytes.subspan(result.consumed);
  }
}

void NetDaemon::handle_frame(const Frame& frame, double now) {
  const std::int64_t now_ticks = to_ticks(now);

  if (const auto* hello = std::get_if<Hello>(&frame.body)) {
    if (hello->agent >= n_ || hello->agent == config_.id) return;
    if (!hello_in_window(hello->clock_ticks, now_ticks)) {
      report_.window_violation = true;
      metrics_increment(config_.metrics, "runtime.net.hello_window_reject");
      return;
    }
    send_frame(hello->agent, Frame{HelloAck{config_.id, now_ticks}});
    return;
  }

  if (const auto* ack = std::get_if<HelloAck>(&frame.body)) {
    if (ack->agent >= n_ || ack->agent == config_.id) return;
    if (!hello_in_window(ack->clock_ticks, now_ticks)) {
      report_.window_violation = true;
      metrics_increment(config_.metrics, "runtime.net.hello_window_reject");
      return;
    }
    peers_[ack->agent].hello_acked = true;
    return;
  }

  if (const auto* probe = std::get_if<ProbeBatch>(&frame.body)) {
    const ProcessorId q = probe->from;
    if (q >= n_ || q == config_.id || !peers_[q].neighbor) return;
    PeerState& peer = peers_[q];
    const std::uint32_t recv24 = compress24(now_ticks);
    for (const ProbeSample& s : probe->samples) {
      if (!peer.seen_probe.insert(s.seq).second) continue;  // retransmit
      const Reconstructed send = reconstruct24(s.t_send24, now_ticks);
      if (send.ambiguous) {
        ++report_.ambiguous_dropped;
        metrics_increment(config_.metrics,
                          "runtime.net.reconstruct_ambiguous");
      } else {
        bank(q, now - from_ticks(send.ticks));
        ++report_.probe_obs;
      }
      peer.pending_echo.push_back(EchoSample{s.seq, s.t_send24, recv24});
    }
    if (peer.pending_echo.size() >= kEchoFlushBatch ||
        round_ >= config_.rounds)
      flush_echoes(q, now);
    return;
  }

  if (const auto* echo = std::get_if<EchoBatch>(&frame.body)) {
    const ProcessorId q = echo->from;
    if (q >= n_ || q == config_.id || !peers_[q].neighbor) return;
    if (!peers_[q].seen_echo.insert(echo->eseq).second) return;
    // The echo's own send stamp is a fresh reverse-direction probe.
    const Reconstructed reply = reconstruct24(echo->t_reply24, now_ticks);
    if (reply.ambiguous) {
      ++report_.ambiguous_dropped;
      metrics_increment(config_.metrics, "runtime.net.reconstruct_ambiguous");
    } else {
      bank(q, now - from_ticks(reply.ticks));
      ++report_.echo_obs;
    }
    return;
  }

  if (const auto* full = std::get_if<FullMessage>(&frame.body)) {
    handle_full(*full);
    return;
  }

  metrics_increment(config_.metrics, "runtime.net.frames_unhandled");
}

void NetDaemon::handle_full(const FullMessage& full) {
  if (full.from >= n_) return;

  if (full.tag == kTagNetReport && config_.id == config_.leader) {
    ReportedExtremes incoming;
    incoming.agent = full.from;
    if (!decode_extremes(full.data, n_, &incoming.dirs)) {
      metrics_increment(config_.metrics, "runtime.net.decode_error");
      return;
    }
    const bool fresh =
        std::none_of(report_.collected.begin(), report_.collected.end(),
                     [&](const ReportedExtremes& r) {
                       return r.agent == incoming.agent;
                     });
    if (fresh) report_.collected.push_back(std::move(incoming));
    if (report_.computed) {
      // Late or retrying reporter: its corrections reply was lost.
      send_corrections(full.from);
    } else {
      leader_try_compute();
    }
    return;
  }

  if (full.tag == kTagNetCorrections && config_.id != config_.leader) {
    if (full.data.size() != 1 + n_) return;
    if (!done_) {
      report_.precision = full.data[0];
      report_.corrections.assign(full.data.begin() + 1, full.data.end());
      report_.converged = true;
      done_ = true;
      linger_end_ = local_clock() + config_.linger.sec;
    }
    send_frame(config_.leader,
               Frame{FullMessage{next_msg_id_++, config_.id, config_.leader,
                                 kTagNetAck, {}}});
    return;
  }

  if (full.tag == kTagNetAck && config_.id == config_.leader) {
    if (full.from != config_.id) acks_.insert(full.from);
    return;
  }

  metrics_increment(config_.metrics, "runtime.net.frames_unhandled");
}

void NetDaemon::boundary(double now) {
  reported_ = true;
  ReportedExtremes own;
  own.agent = config_.id;
  for (const auto& [peer, stats] : incoming_)
    if (stats.count > 0 && stats.dmin.is_finite() && stats.dmax.is_finite())
      own.dirs.push_back(DirectionExtremes{peer, stats.dmin.finite(),
                                           stats.dmax.finite(), stats.count});
  report_.collected.push_back(std::move(own));

  if (config_.id == config_.leader) {
    leader_try_compute();
  } else {
    send_report();
  }
  next_retry_ = now + config_.retry.sec;
}

void NetDaemon::send_report() {
  std::vector<double> data;
  encode_extremes(report_.collected.front().dirs, data);
  send_frame(config_.leader,
             Frame{FullMessage{next_msg_id_++, config_.id, config_.leader,
                               kTagNetReport, std::move(data)}});
}

void NetDaemon::send_corrections(ProcessorId to) {
  std::vector<double> data;
  data.reserve(1 + n_);
  data.push_back(report_.precision);
  data.insert(data.end(), report_.corrections.begin(),
              report_.corrections.end());
  send_frame(to, Frame{FullMessage{next_msg_id_++, config_.id, to,
                                   kTagNetCorrections, std::move(data)}});
}

void NetDaemon::leader_try_compute() {
  if (report_.computed || report_.detected || !reported_) return;
  if (report_.collected.size() < n_) return;
  try {
    const SyncOutcome outcome = synchronize_from_extremes(
        *config_.model, report_.collected, config_.leader);
    report_.corrections = outcome.corrections;
    report_.precision = outcome.optimal_precision.is_finite()
                            ? outcome.optimal_precision.finite()
                            : std::numeric_limits<double>::infinity();
    report_.computed = true;
    report_.converged = true;
  } catch (const Error&) {
    // The views contradict the assumptions (§8 detection): no corrections
    // exist.  Followers time out at their deadline.
    report_.detected = true;
    metrics_increment(config_.metrics, "runtime.net.compute_rejected");
    return;
  }
  for (ProcessorId q = 0; q < n_; ++q)
    if (q != config_.id) send_corrections(q);
}

bool NetDaemon::finished(double now) const {
  if (now >= config_.deadline.sec) return true;
  if (config_.id == config_.leader)
    return report_.computed && acks_.size() + 1 >= n_;
  return done_ && now >= linger_end_;
}

double NetDaemon::next_due(double now) const {
  double due = config_.deadline.sec;
  if (round_ < config_.rounds)
    due = std::min(due, config_.warmup.sec +
                            static_cast<double>(round_) * config_.spacing.sec);
  if (!reported_) due = std::min(due, config_.report_at.sec);
  if (reported_ && !(config_.id == config_.leader
                         ? report_.computed && acks_.size() + 1 >= n_
                         : done_))
    due = std::min(due, next_retry_);
  if (done_ && config_.id != config_.leader) due = std::min(due, linger_end_);
  (void)now;
  return due;
}

void NetDaemon::on_timers(double now) {
  while (round_ < config_.rounds &&
         now >= config_.warmup.sec +
                    static_cast<double>(round_) * config_.spacing.sec) {
    send_probe_round(now);
    ++round_;
  }
  if (round_ >= config_.rounds)
    for (const ProcessorId q : neighbors_) flush_echoes(q, now);

  if (!reported_ && now >= config_.report_at.sec) boundary(now);

  if (reported_ && now >= next_retry_) {
    if (config_.id == config_.leader) {
      if (report_.computed && acks_.size() + 1 < n_) {
        for (ProcessorId q = 0; q < n_; ++q)
          if (q != config_.id && acks_.count(q) == 0) send_corrections(q);
        ++report_.report_retries;
      }
    } else if (!done_) {
      send_report();
      ++report_.report_retries;
      metrics_increment(config_.metrics, "runtime.net.report_retries");
    }
    next_retry_ = now + config_.retry.sec;
  }
}

NetDaemonReport NetDaemon::run() {
  // Announce: Hello to every neighbor (retried via probe piggyback until
  // acked) verifies the clock-window assumption before stamps are trusted.
  for (const ProcessorId q : neighbors_)
    send_frame(q, Frame{Hello{config_.id, to_ticks(local_clock())}});

  for (;;) {
    double now = local_clock();
    if (finished(now)) break;
    const double due = next_due(now);
    const double wait = due - now;
    const int timeout_ms =
        wait <= 0.0 ? 0 : static_cast<int>(std::min(wait * 1000.0, 50.0)) + 1;
    loop_.poll_once(timeout_ms);
    now = local_clock();
    on_timers(now);
    if (finished(now)) break;
  }
  return report_;
}

}  // namespace cs::net
