// NetDaemon end-to-end: N in-process daemons over real loopback sockets
// converge to identical, offline-reproducible Thm 4.6 corrections; plus
// the report codec and the constructor's config validation.
#include "net/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "net/server.hpp"
#include "support/builders.hpp"

namespace cs::net {
namespace {

double realtime_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Reserve n distinct ephemeral loopback ports: bind, record, release.
// (The tiny reuse race is acceptable in the test environment; daemons
// throw loudly on a bind collision rather than misbehaving.)
std::vector<SocketAddress> reserve_ports(std::size_t n) {
  std::vector<SocketAddress> addrs(n, loopback(0));
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) fds.push_back(open_udp_socket(addrs[i]));
  for (const int fd : fds) ::close(fd);
  return addrs;
}

double spread(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *hi - *lo;
}

TEST(ExtremesCodec, RoundTripsAndRejectsMalformedPayloads) {
  const std::vector<DirectionExtremes> dirs = {
      {1, 0.00002, 0.00413, 17},
      {3, 0.1, 0.1, 1},
      {7, -0.5, 2.25, 123456789},
  };
  std::vector<double> payload;
  encode_extremes(dirs, payload);
  std::vector<DirectionExtremes> back;
  ASSERT_TRUE(decode_extremes(payload, 8, &back));
  EXPECT_EQ(back, dirs);
  EXPECT_TRUE(decode_extremes(payload, 8, nullptr));  // check only

  // Encoding appends, so a header can precede the payload.
  std::vector<double> framed = {2.0, 1.0};
  encode_extremes(dirs, framed);
  EXPECT_EQ(std::vector<double>(framed.begin() + 2, framed.end()), payload);

  // Empty report: zero directions is legal.
  std::vector<double> empty;
  encode_extremes({}, empty);
  std::vector<DirectionExtremes> none;
  ASSERT_TRUE(decode_extremes(empty, 8, &none));
  EXPECT_TRUE(none.empty());

  // Malformed: truncated payload, count/length mismatch, absurd count.
  std::vector<double> torn(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(decode_extremes(torn, 8, &back));
  EXPECT_TRUE(back.empty());
  EXPECT_FALSE(decode_extremes(std::vector<double>{2.0, 1.0, 0.0, 0.0, 1.0},
                               8, &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{1e18}, 8, &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{}, 8, &back));
  // A peer of 2^32 would narrow onto peer 0; a peer of n is no agent.
  EXPECT_FALSE(decode_extremes(
      std::vector<double>{1.0, 4294967296.0, 0.001, 0.002, 1.0}, 8, &back));
  EXPECT_FALSE(decode_extremes(payload, 7, &back));
  // 1 + 4·count wraps to 1 for this count, which matches the length.
  EXPECT_FALSE(decode_extremes(std::vector<double>{4.611686018427388e18}, 8,
                               &back));

  // Poisoned extremes: NaN, d̃min > d̃max, infinities, and a direction
  // with no observation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(decode_extremes(std::vector<double>{1, 1, nan, nan, 1}, 8,
                               &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{1, 1, 0.5, 0.1, 1}, 8,
                               &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{1, 1, -inf, inf, 0}, 8,
                               &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{1, 1, -inf, 0.1, 1}, 8,
                               &back));
  EXPECT_FALSE(decode_extremes(std::vector<double>{1, 1, 0.1, 0.2, 0}, 8,
                               &back));
  EXPECT_TRUE(back.empty());
}

TEST(NetDaemonConfigValidation, RejectsMalformedSetups) {
  const SystemModel model = test::bounded_model(make_complete(3), 0.0, 0.05);
  const double base = realtime_now() + 5.0;

  auto good = [&] {
    NetDaemonConfig config;
    config.peers = std::vector<SocketAddress>(3, loopback(0));
    config.model = &model;
    config.base = base;
    return config;
  };

  {  // model is mandatory
    NetDaemonConfig config = good();
    config.model = nullptr;
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // one address per processor
    NetDaemonConfig config = good();
    config.peers.pop_back();
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // id / leader in range
    NetDaemonConfig config = good();
    config.id = 3;
    EXPECT_THROW(NetDaemon{config}, Error);
    config.id = 0;
    config.leader = 99;
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // the boundary must follow the last probe round
    NetDaemonConfig config = good();
    config.warmup = Duration{0.1};
    config.spacing = Duration{0.1};
    config.rounds = 20;
    config.report_at = Duration{1.2};  // 0.1 + 20*0.1 = 2.1 > 1.2
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // the deadline must follow the boundary
    NetDaemonConfig config = good();
    config.deadline = config.report_at;
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // a base already past the schedule can never probe
    NetDaemonConfig config = good();
    config.base = realtime_now() - 100.0;
    EXPECT_THROW(NetDaemon{config}, Error);
  }
  {  // a windowed-bias link needs the series no extremes report carries
    SystemModel windowed = test::bounded_model(make_complete(3), 0.0, 0.05);
    windowed.set_constraint(make_windowed_bias(1, 2, 0.01, 0.5));
    NetDaemonConfig config = good();
    config.model = &windowed;
    try {
      NetDaemon daemon{config};
      ADD_FAILURE() << "a windowed-bias model was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("link 1-2"), std::string::npos)
          << e.what();
    }
  }
}

// The ISSUE acceptance run, in-process: four daemons on real UDP sockets,
// distinct start offsets, one leader.  Every daemon must converge to the
// SAME corrections, the leader's compute must be reproducible offline from
// its collected extremes bit for bit, and the realized corrected-clock
// spread must respect the claimed (optimal) precision.
TEST(NetDaemonConvergence, FourDaemonsOverLoopbackMatchOfflineBitForBit) {
  constexpr std::size_t kN = 4;
  const SystemModel model = test::bounded_model(make_complete(kN), 0.0, 0.05);
  const std::vector<double> offsets = {0.0, 0.013, 0.027, 0.041};
  const std::vector<SocketAddress> peers = reserve_ports(kN);
  const double base = realtime_now() + 0.3;

  std::vector<NetDaemonReport> reports(kN);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kN; ++p) {
    threads.emplace_back([&, p] {
      NetDaemonConfig config;
      config.id = static_cast<ProcessorId>(p);
      config.peers = peers;
      config.leader = 0;
      config.model = &model;
      config.base = base;
      config.start_offset = Duration{offsets[p]};
      config.warmup = Duration{0.05};
      config.spacing = Duration{0.02};
      config.rounds = 4;
      config.report_at = Duration{0.4};
      config.retry = Duration{0.05};
      config.linger = Duration{0.3};
      config.deadline = Duration{10.0};
      NetDaemon daemon(config);
      reports[p] = daemon.run();
    });
  }
  for (std::thread& t : threads) t.join();

  const NetDaemonReport& leader = reports[0];
  ASSERT_TRUE(leader.computed) << "leader did not collect all reports";
  EXPECT_FALSE(leader.detected);
  EXPECT_FALSE(leader.window_violation);
  ASSERT_EQ(leader.collected.size(), kN);
  ASSERT_TRUE(std::isfinite(leader.precision));

  for (std::size_t p = 0; p < kN; ++p) {
    ASSERT_TRUE(reports[p].converged) << "daemon " << p;
    ASSERT_EQ(reports[p].corrections.size(), kN) << "daemon " << p;
    // The corrections datagram is canonical full-width doubles: every
    // daemon holds the leader's vector bit for bit, not approximately.
    EXPECT_EQ(reports[p].corrections, leader.corrections) << "daemon " << p;
    EXPECT_EQ(reports[p].precision, leader.precision) << "daemon " << p;
    EXPECT_GT(reports[p].probe_obs, 0u) << "daemon " << p;
    EXPECT_GT(reports[p].echo_obs, 0u) << "daemon " << p;
    EXPECT_EQ(reports[p].ambiguous_dropped, 0u) << "daemon " << p;
  }

  // Offline cross-check (Lemma 6.2/6.5: the extremes are a sufficient
  // statistic): rerunning the pipeline from the leader's collected table
  // reproduces exactly what was flooded.
  const SyncOutcome offline =
      synchronize_from_extremes(model, leader.collected, /*root=*/0);
  EXPECT_EQ(offline.corrections, leader.corrections);
  ASSERT_TRUE(offline.optimal_precision.is_finite());
  EXPECT_EQ(offline.optimal_precision.value(), leader.precision);

  // Thm 4.6 realized: corrected clock of p is local + x_p, local clocks
  // differ by the start offsets, so the corrected spread is
  // spread(x_p - S_p) — within the claimed optimal precision.
  std::vector<double> corrected(kN);
  for (std::size_t p = 0; p < kN; ++p)
    corrected[p] = leader.corrections[p] - offsets[p];
  EXPECT_LE(spread(corrected), leader.precision + 1e-9);
}

TEST(NetDaemonConvergence, RingTopologyProbesOnlyItsLinks) {
  // A 4-ring: each daemon has exactly two neighbors; the protocol must
  // still converge using only the topology's links.
  constexpr std::size_t kN = 4;
  const SystemModel model = test::bounded_model(make_ring(kN), 0.0, 0.05);
  const std::vector<SocketAddress> peers = reserve_ports(kN);
  const double base = realtime_now() + 0.3;

  std::vector<NetDaemonReport> reports(kN);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kN; ++p) {
    threads.emplace_back([&, p] {
      NetDaemonConfig config;
      config.id = static_cast<ProcessorId>(p);
      config.peers = peers;
      config.model = &model;
      config.base = base;
      config.start_offset = Duration{0.005 * static_cast<double>(p)};
      config.warmup = Duration{0.05};
      config.spacing = Duration{0.02};
      config.rounds = 4;
      config.report_at = Duration{0.3};
      config.retry = Duration{0.05};
      config.linger = Duration{0.3};
      config.deadline = Duration{10.0};
      NetDaemon daemon(config);
      reports[p] = daemon.run();
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(reports[0].computed);
  for (std::size_t p = 0; p < kN; ++p) {
    ASSERT_TRUE(reports[p].converged) << "daemon " << p;
    EXPECT_EQ(reports[p].corrections, reports[0].corrections);
  }
  // Ring: each daemon observed exactly its two incoming directions.
  for (const ReportedExtremes& r : reports[0].collected)
    EXPECT_EQ(r.dirs.size(), 2u) << "agent " << r.agent;
}

}  // namespace
}  // namespace cs::net
