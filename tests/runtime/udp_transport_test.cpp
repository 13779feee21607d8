// Regression tests for the UdpTransport receive-path error handling.
//
// The historical bug: recv_loop treated every poll() outcome <= 0 as a
// timeout and looped.  A descriptor that vanishes (EBADF / POLLNVAL —
// poll() returns *immediately*) therefore busy-spun the receive thread
// forever with no error surfaced anywhere.  The loop must instead classify
// errors, back off boundedly, record runtime.udp.poll_error, and give the
// endpoint up as failed.
#include "runtime/udp_transport.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "net/address.hpp"
#include "net/wire.hpp"

namespace cs {
namespace {

using namespace std::chrono_literals;

TEST(UdpTransportErrors, ClosedFdSurfacesFailureInsteadOfBusySpin) {
  UdpTransport transport(1);
  Metrics metrics;
  transport.set_metrics(&metrics);
  std::atomic<int> notified{0};
  std::string detail;
  transport.set_error_handler([&](ProcessorId pid, const std::string& what) {
    EXPECT_EQ(pid, 0u);
    detail = what;
    notified.fetch_add(1);
  });
  transport.open(0, [](WireMessage) {});
  transport.start();

  // Rip the socket out from under the receive loop.  Pre-fix, the loop
  // spun on POLLNVAL forever and this test timed out waiting below.
  transport.close_endpoint(0);

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (transport.failed_endpoints() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);

  EXPECT_EQ(transport.failed_endpoints(), 1u);
  EXPECT_GE(metrics.counter("runtime.udp.poll_error"), 1u);
  EXPECT_EQ(metrics.counter("runtime.udp.endpoint_failed"), 1u);
  EXPECT_EQ(notified.load(), 1);
  EXPECT_NE(detail.find("endpoint 0"), std::string::npos) << detail;
  transport.stop();
}

TEST(UdpTransportErrors, HealthyEndpointsReportNoFailures) {
  UdpTransport transport(2);
  Metrics metrics;
  transport.set_metrics(&metrics);
  std::atomic<int> delivered{0};
  transport.open(0, [](WireMessage) {});
  transport.open(1, [&](WireMessage msg) {
    EXPECT_EQ(msg.payload.tag, 7u);
    delivered.fetch_add(1);
  });
  transport.start();

  WireMessage msg;
  msg.id = 1;
  msg.from = 0;
  msg.to = 1;
  msg.payload.tag = 7;
  msg.payload.data = {1.5, -2.5};
  ASSERT_TRUE(transport.send(msg));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (delivered.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);

  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(transport.failed_endpoints(), 0u);
  EXPECT_EQ(metrics.counter("runtime.udp.poll_error"), 0u);
  transport.stop();
}

// Sends raw bytes at an endpoint, bypassing the wire codec — the hostile
// peer the receive path must survive.
void send_raw(const net::SocketAddress& to, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst;
  net::to_sockaddr(to, dst);
  EXPECT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof dst),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

TEST(UdpTransportWire, TruncatedDatagramIsCountedAndNeverDelivered) {
  // ISSUE satellite (a): a datagram larger than the receive buffer arrives
  // with MSG_TRUNC set.  Pre-fix the torso was decoded as if complete; now
  // it must be dropped and counted, with nothing reaching the sink.
  UdpTransportOptions options;
  options.recv_buffer_bytes = 64;
  UdpTransport transport(1, options);
  Metrics metrics;
  transport.set_metrics(&metrics);
  std::atomic<int> delivered{0};
  transport.open(0, [&](WireMessage) { delivered.fetch_add(1); });
  transport.start();

  send_raw(transport.address_of(0), std::vector<std::uint8_t>(200, 0x55));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (metrics.counter("runtime.udp.recv_truncated") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);

  EXPECT_EQ(metrics.counter("runtime.udp.recv_truncated"), 1u);
  // Dropped before decode: the torso is not a decode error, and the sink
  // never saw it.
  EXPECT_EQ(metrics.counter("runtime.udp.decode_error"), 0u);
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.failed_endpoints(), 0u);
  transport.stop();
}

TEST(UdpTransportWire, GarbageDatagramCountsDecodeErrorNotDelivery) {
  UdpTransport transport(1);
  Metrics metrics;
  transport.set_metrics(&metrics);
  std::atomic<int> delivered{0};
  transport.open(0, [&](WireMessage) { delivered.fetch_add(1); });
  transport.start();

  send_raw(transport.address_of(0),
           std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01});

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (metrics.counter("runtime.udp.decode_error") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);

  EXPECT_EQ(metrics.counter("runtime.udp.decode_error"), 1u);
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.failed_endpoints(), 0u);
  transport.stop();
}

TEST(UdpTransportWire, MisaddressedFrameIsCountedAndNeverDelivered) {
  // Any local process can reach an endpoint's port.  A well-formed Full
  // frame addressed to another endpoint, to no endpoint, or from no agent
  // must be dropped and counted: the host indexes its agents by `to`.
  UdpTransport transport(2);
  Metrics metrics;
  transport.set_metrics(&metrics);
  std::atomic<int> delivered{0};
  std::atomic<std::uint64_t> last_id{0};
  transport.open(0, [&](WireMessage m) {
    last_id.store(m.id);
    delivered.fetch_add(1);
  });
  transport.open(1, [&](WireMessage) { delivered.fetch_add(1); });
  transport.start();

  const auto full = [](std::uint64_t id, std::uint32_t from,
                       std::uint32_t to) {
    net::FullMessage m;
    m.id = id;
    m.from = from;
    m.to = to;
    m.tag = 1;
    m.data = {0.5};
    return net::encode(net::Frame{std::move(m)});
  };
  const net::SocketAddress to0 = transport.address_of(0);
  send_raw(to0, full(1, 1, 1));            // for endpoint 1
  send_raw(to0, full(2, 1, 2));            // for no endpoint
  send_raw(to0, full(3, 2, 0));            // from no agent
  send_raw(to0, full(4, 4294967295u, 0));  // from no agent
  send_raw(to0, full(5, 1, 0));            // well addressed

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while ((metrics.counter("runtime.udp.misaddressed") < 4 ||
          delivered.load() == 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  std::this_thread::sleep_for(20ms);  // room for a wrong late delivery

  EXPECT_EQ(metrics.counter("runtime.udp.misaddressed"), 4u);
  EXPECT_EQ(metrics.counter("runtime.udp.decode_error"), 0u);
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(last_id.load(), 5u);
  transport.stop();
}

TEST(UdpTransportWire, InvalidBindAddressThrowsInsteadOfFallingBack) {
  // ISSUE satellite (b): a bad bind address must be a loud cs::Error at
  // construction — never a silent loopback fallback.
  UdpTransportOptions bad;
  bad.bind_address = "999.1.2.3";
  EXPECT_THROW(UdpTransport(1, bad), Error);
  bad.bind_address = "not-an-address";
  EXPECT_THROW(UdpTransport(1, bad), Error);

  UdpTransportOptions tiny;
  tiny.recv_buffer_bytes = 2;  // cannot hold even a frame header
  EXPECT_THROW(UdpTransport(1, tiny), Error);
}

TEST(UdpTransportWire, BindsConfiguredAddress) {
  UdpTransportOptions options;
  options.bind_address = "127.0.0.1";
  UdpTransport transport(1, options);
  transport.open(0, [](WireMessage) {});
  EXPECT_EQ(net::to_string(transport.address_of(0)),
            "127.0.0.1:" + std::to_string(transport.port_of(0)));
  // "*" (INADDR_ANY) is accepted too.
  UdpTransportOptions any;
  any.bind_address = "*";
  UdpTransport wildcard(1, any);
  wildcard.open(0, [](WireMessage) {});
  EXPECT_NE(wildcard.port_of(0), 0);
}

}  // namespace
}  // namespace cs
