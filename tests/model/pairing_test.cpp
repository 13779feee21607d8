#include "model/pairing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/pairing.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(Pairing, EstimatedDelayLemma61) {
  // d̃(m) = d(m) + S_send - S_recv, and equals recv clock - send clock.
  const double s0 = 2.0, s1 = 5.0;
  const Execution e = test::two_node_execution(s0, s1, {0.4}, {0.7});
  for (const TracedMessage& t : trace_messages(e)) {
    const double s_from = (t.msg.from == 0) ? s0 : s1;
    const double s_to = (t.msg.to == 0) ? s0 : s1;
    EXPECT_NEAR(t.msg.estimated_delay().sec,
                t.delay().sec + s_from - s_to, 1e-12);
  }
}

TEST(Pairing, ActualDelaysMatchConstruction) {
  const Execution e = test::two_node_execution(1.0, 2.0, {0.25, 0.5}, {});
  const auto msgs = trace_messages(e);
  ASSERT_EQ(msgs.size(), 2u);
  std::vector<double> delays{msgs[0].delay().sec, msgs[1].delay().sec};
  std::sort(delays.begin(), delays.end());
  EXPECT_NEAR(delays[0], 0.25, 1e-12);
  EXPECT_NEAR(delays[1], 0.5, 1e-12);
}

TEST(Pairing, FromViewsAlone) {
  // pair_messages must work on views (no real times).
  const Execution e = test::two_node_execution(3.0, 1.0, {0.4}, {0.2});
  const auto views = e.views();
  const auto paired = pair_messages(views);
  ASSERT_EQ(paired.size(), 2u);
  for (const PairedMessage& m : paired) {
    EXPECT_NE(m.from, m.to);
    // d̃ = d + S_from - S_to with d in {0.4, 0.2}.
    if (m.from == 0) {
      EXPECT_NEAR(m.estimated_delay().sec, 0.4 + 2.0, 1e-12);
    }
    if (m.from == 1) {
      EXPECT_NEAR(m.estimated_delay().sec, 0.2 - 2.0, 1e-12);
    }
  }
}

TEST(Pairing, UnreceivedSendsAreDropped) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 42;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_TRUE(pair_messages(views).empty());
}

TEST(Pairing, ReceiveWithoutSendThrows) {
  History h0(0, RealTime{0.0});
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{1.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, DuplicateSendIdThrows) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  send.when = ClockTime{2.0};
  h0.append(send);  // same id again
  History h1(1, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, DuplicateReceiveThrows) {
  // Regression: exactly one PairedMessage may exist per send.  A faulty
  // network re-delivering message id 7 must not inflate the sample set.
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{3.0};
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views, MatchPolicy::kStrict),
               InvalidExecution);
}

TEST(Pairing, DropOrphansKeepsEarliestDuplicate) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{3.0};
  h1.append(recv);  // duplicate re-delivery, later
  std::vector<View> views{h0.view(), h1.view()};

  PairingStats stats;
  const auto paired =
      pair_messages(views, MatchPolicy::kDropOrphans, &stats);
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_EQ(paired[0].recv_clock, ClockTime{2.0});  // the earliest copy
  EXPECT_EQ(stats.paired, 1u);
  EXPECT_EQ(stats.duplicate_receives, 1u);
  EXPECT_EQ(stats.orphan_receives, 0u);
  EXPECT_EQ(stats.unreceived_sends, 0u);
}

TEST(Pairing, StatsTallyOrphansAndUnreceivedSends) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 1;
  send.peer = 1;
  h0.append(send);
  send.when = ClockTime{2.0};
  send.msg = 2;  // never received (dropped in transit)
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{1.5};
  recv.msg = 1;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{2.5};
  recv.msg = 99;  // orphan: send outside these views
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};

  PairingStats stats;
  const auto paired =
      pair_messages(views, MatchPolicy::kDropOrphans, &stats);
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_EQ(stats.paired, 1u);
  EXPECT_EQ(stats.orphan_receives, 1u);
  EXPECT_EQ(stats.duplicate_receives, 0u);
  EXPECT_EQ(stats.unreceived_sends, 1u);
}

TEST(Pairing, EndpointMismatchThrows) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 2;  // declared destination: 2
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;  // but received by 1
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  History h2(2, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view(), h2.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}


ViewEvent message_event(EventKind kind, double when, MessageId msg,
                        ProcessorId peer) {
  ViewEvent e;
  e.kind = kind;
  e.when = ClockTime{when};
  e.msg = msg;
  e.peer = peer;
  return e;
}

/// Processor 0 sends ids[i] at clock i; processor 1 receives them in
/// reverse order, each half a second after its send clock.  Every id must
/// pair, in receive order, under strict pairing.
void expect_every_id_pairs(const std::vector<MessageId>& ids) {
  std::vector<View> views(2);
  views[1].pid = 1;
  for (std::size_t i = 0; i < ids.size(); ++i)
    views[0].events.push_back(message_event(
        EventKind::kSend, static_cast<double>(i), ids[i], 1));
  for (std::size_t i = ids.size(); i-- > 0;)
    views[1].events.push_back(message_event(
        EventKind::kReceive, static_cast<double>(i) + 0.5, ids[i], 0));

  PairingStats stats;
  const auto paired = pair_messages(views, MatchPolicy::kStrict, &stats);
  ASSERT_EQ(paired.size(), ids.size());
  std::size_t wrong = 0;
  for (std::size_t k = 0; k < paired.size(); ++k) {
    const std::size_t i = ids.size() - 1 - k;
    const PairedMessage& m = paired[k];
    wrong += m.id != ids[i] || m.from != 0 || m.to != 1 ||
             m.send_clock != ClockTime{static_cast<double>(i)} ||
             m.recv_clock != ClockTime{static_cast<double>(i) + 0.5};
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(stats.paired, ids.size());
  EXPECT_EQ(stats.unreceived_sends, 0u);
}

TEST(Pairing, IdsZeroAndAllOnesPair) {
  constexpr MessageId kMax = std::numeric_limits<MessageId>::max();
  expect_every_id_pairs({0, kMax, 1, kMax - 1});

  // Neither extreme is a reserved marker: an absent 0 or 2^64 - 1 is an
  // orphan like any other id.
  std::vector<View> views(2);
  views[1].pid = 1;
  views[0].events.push_back(message_event(EventKind::kSend, 1.0, kMax, 1));
  views[1].events.push_back(message_event(EventKind::kReceive, 2.0, 0, 0));
  views[1].events.push_back(message_event(EventKind::kReceive, 3.0, kMax, 0));
  PairingStats stats;
  const auto paired = pair_messages(views, MatchPolicy::kDropOrphans, &stats);
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_EQ(paired[0].id, kMax);
  EXPECT_EQ(stats.orphan_receives, 1u);
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, IdsDifferingOnlyInTheirTopSixteenBitsPair) {
  std::vector<MessageId> ids;
  for (MessageId j = 0; j < (MessageId{1} << 16); ++j)
    ids.push_back((j << 48) | 0x5eed);
  expect_every_id_pairs(ids);
}

TEST(Pairing, IdsThatAreAllMultiplesOfTwoToTheThirtyTwoPair) {
  std::vector<MessageId> ids;
  for (MessageId j = 0; j < (MessageId{1} << 16); ++j) ids.push_back(j << 32);
  expect_every_id_pairs(ids);
}

// ---- Property: the flat index agrees with the hash-map reference ---------

enum class Malformation { kNone, kDuplicateSend, kWrongReceiver, kWrongSender };

/// Random views over 2-6 processors: unreceived sends, orphan receives,
/// duplicate re-deliveries, shuffled event order, one id style per case
/// (sequential, top-bits-only, multiples of 2^32, random), plus at most one
/// planted malformation.
std::vector<View> random_views(Rng& rng, Malformation bad) {
  const std::size_t n = 2 + rng.uniform_int(5);
  std::vector<View> views(n);
  for (std::size_t p = 0; p < n; ++p)
    views[p].pid = static_cast<ProcessorId>(p);
  const std::uint64_t style = rng.uniform_int(4);
  const auto id_of = [&](std::uint64_t k) -> MessageId {
    switch (style) {
      case 0: return k + 1;
      case 1: return (k << 48) | 0xabcd;
      case 2: return k << 32;
      default: return rng();
    }
  };
  const auto pick_pair = [&](ProcessorId& from, ProcessorId& to) {
    from = static_cast<ProcessorId>(rng.uniform_int(n));
    to = static_cast<ProcessorId>((from + 1 + rng.uniform_int(n - 1)) % n);
  };

  struct Sent {
    MessageId id;
    ProcessorId from, to;
  };
  std::vector<Sent> sent;
  const std::size_t messages = 1 + rng.uniform_int(120);
  for (std::size_t k = 0; k < messages; ++k) {
    Sent m{id_of(k), 0, 0};
    pick_pair(m.from, m.to);
    sent.push_back(m);
    views[m.from].events.push_back(
        message_event(EventKind::kSend, rng.uniform01(), m.id, m.to));
    const std::uint64_t fate = rng.uniform_int(10);
    if (fate == 0) continue;  // never received
    const std::uint64_t copies = fate == 1 ? 2 + rng.uniform_int(2) : 1;
    for (std::uint64_t c = 0; c < copies; ++c)
      views[m.to].events.push_back(
          message_event(EventKind::kReceive, rng.uniform01(), m.id, m.from));
  }
  const std::size_t orphans = rng.uniform_int(8);
  for (std::size_t k = 0; k < orphans; ++k) {
    ProcessorId from = 0, to = 0;
    pick_pair(from, to);
    views[to].events.push_back(message_event(
        EventKind::kReceive, rng.uniform01(), id_of(messages + k), from));
  }

  const Sent& victim = sent[rng.uniform_int(sent.size())];
  switch (bad) {
    case Malformation::kNone:
      break;
    case Malformation::kDuplicateSend:
      views[rng.uniform_int(n)].events.push_back(message_event(
          EventKind::kSend, rng.uniform01(), victim.id, victim.to));
      break;
    case Malformation::kWrongReceiver:
      // Received by its sender, who is never its destination.
      views[victim.from].events.push_back(message_event(
          EventKind::kReceive, rng.uniform01(), victim.id, victim.from));
      break;
    case Malformation::kWrongSender:
      views[victim.to].events.push_back(message_event(
          EventKind::kReceive, rng.uniform01(), victim.id, victim.to));
      break;
  }
  for (View& v : views)
    for (std::size_t i = v.events.size(); i > 1; --i)
      std::swap(v.events[i - 1], v.events[rng.uniform_int(i)]);
  return views;
}

struct PairingOutcome {
  std::vector<PairedMessage> pairs;
  PairingStats stats{3, 1, 4, 1};  // not zero: tallies add or overwrite
  std::string error;
};

template <class Pair>
PairingOutcome run_pairing(Pair pair) {
  PairingOutcome out;
  try {
    out.pairs = pair(&out.stats);
  } catch (const InvalidExecution& e) {
    out.error = e.what();
  }
  return out;
}

TEST(PairingOracleProperty, FlatIndexMatchesTheHashMapReference) {
  std::size_t errors = 0, orphans = 0, duplicates = 0, unreceived = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed);
    const auto bad = static_cast<Malformation>(seed % 4);
    const std::vector<View> views = random_views(rng, bad);
    for (const MatchPolicy policy :
         {MatchPolicy::kStrict, MatchPolicy::kDropOrphans}) {
      const std::string ctx =
          "seed " + std::to_string(seed) +
          (policy == MatchPolicy::kStrict ? " strict" : " drop-orphans");
      const PairingOutcome want = run_pairing([&](PairingStats* stats) {
        return reference_pair_messages(views, policy, stats);
      });
      const PairingOutcome got = run_pairing([&](PairingStats* stats) {
        return pair_messages(views, policy, stats);
      });
      EXPECT_EQ(got.error, want.error) << ctx;
      EXPECT_EQ(got.stats.paired, want.stats.paired) << ctx;
      EXPECT_EQ(got.stats.orphan_receives, want.stats.orphan_receives) << ctx;
      EXPECT_EQ(got.stats.duplicate_receives, want.stats.duplicate_receives)
          << ctx;
      EXPECT_EQ(got.stats.unreceived_sends, want.stats.unreceived_sends)
          << ctx;
      ASSERT_EQ(got.pairs.size(), want.pairs.size()) << ctx;
      for (std::size_t k = 0; k < got.pairs.size(); ++k) {
        const PairedMessage& a = got.pairs[k];
        const PairedMessage& b = want.pairs[k];
        ASSERT_TRUE(a.id == b.id && a.from == b.from && a.to == b.to &&
                    a.send_clock == b.send_clock &&
                    a.recv_clock == b.recv_clock)
            << ctx << " pair " << k;
      }
      errors += !want.error.empty();
      if (want.error.empty() && policy == MatchPolicy::kDropOrphans) {
        orphans += want.stats.orphan_receives > 1;
        duplicates += want.stats.duplicate_receives > 4;
        unreceived += want.stats.unreceived_sends > 1;
      }
    }
  }
  // Every branch was exercised: each malformation throws, and clean cases
  // carry orphans, re-deliveries and unreceived sends.
  EXPECT_GT(errors, 300u);
  EXPECT_GT(orphans, 30u);
  EXPECT_GT(duplicates, 30u);
  EXPECT_GT(unreceived, 30u);
}

}  // namespace
}  // namespace cs
