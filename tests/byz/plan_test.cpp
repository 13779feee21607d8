// ByzPlan: grammar, resolution, and the lie kernels (byz/plan.hpp).

#include <gtest/gtest.h>

#include <cmath>

#include "byz/plan.hpp"
#include "common/error.hpp"

namespace cs::byz {
namespace {

TEST(ByzPlanGrammar, ParsesEveryKey) {
  const ByzPlanSpec spec = parse_byz_plan(
      "lie-ramp f=2 mag=0.05 ramp=4 from=1 until=9 seed=77");
  EXPECT_EQ(spec.behavior, Behavior::kLieRamp);
  EXPECT_EQ(spec.f, 2u);
  EXPECT_DOUBLE_EQ(spec.magnitude, 0.05);
  EXPECT_DOUBLE_EQ(spec.ramp_span, 4.0);
  EXPECT_DOUBLE_EQ(spec.from, 1.0);
  EXPECT_DOUBLE_EQ(spec.until, 9.0);
  EXPECT_EQ(spec.seed, 77u);
}

TEST(ByzPlanGrammar, ExplicitAgentListParses) {
  const ByzPlanSpec spec = parse_byz_plan("equivocate agents=1,3 mag=0.02");
  ASSERT_EQ(spec.agents.size(), 2u);
  EXPECT_EQ(spec.agents[0], 1u);
  EXPECT_EQ(spec.agents[1], 3u);
}

TEST(ByzPlanGrammar, DescribeReparsesToTheSameSpec) {
  const ByzPlanSpec spec =
      parse_byz_plan("lie-const agents=0,2 mag=0.01 from=2 until=6");
  const ByzPlanSpec again = parse_byz_plan(spec.describe());
  EXPECT_EQ(again.behavior, spec.behavior);
  EXPECT_EQ(again.agents, spec.agents);
  EXPECT_DOUBLE_EQ(again.magnitude, spec.magnitude);
  EXPECT_DOUBLE_EQ(again.from, spec.from);
  EXPECT_DOUBLE_EQ(again.until, spec.until);
}

TEST(ByzPlanGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_byz_plan(""), Error);
  EXPECT_THROW(parse_byz_plan("subvert f=1 mag=0.1"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const mag=0.1"), Error);          // no f
  EXPECT_THROW(parse_byz_plan("lie-const f=1"), Error);              // no mag
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=x"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=0.1 bogus=3"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=0.1 from=5 until=2"),
               Error);
  EXPECT_THROW(parse_byz_plan("none extra"), Error);
  // Numbers read with the trace reader's grammar (docs/TRACE.md §1): ids,
  // counts and the seed are unsigned decimal integers, and no NaN or hex.
  EXPECT_THROW(parse_byz_plan("lie-const agents=1.5 mag=0.01"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const agents=4294967296 mag=0.01"),
               Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=nan"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=0x1 mag=0.1"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1.5 mag=0.1"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=0.1 seed=-1"), Error);
  EXPECT_THROW(parse_byz_plan("lie-const f=1 mag=0.1 seed=0xB12A"), Error);
  EXPECT_EQ(parse_byz_plan("lie-const f=1 mag=0.1 seed=45354").seed,
            0xB12Au);
}

TEST(ByzPlanResolve, ExplicitAgentsOutOfRangeThrow) {
  const ByzPlanSpec spec = parse_byz_plan("lie-const agents=7 mag=0.1");
  EXPECT_THROW(resolve_byz_plan(spec, 4), Error);
}

TEST(ByzPlanResolve, RandomAssignmentIsSeedDeterministic) {
  ByzPlanSpec spec = parse_byz_plan("equivocate f=2 mag=0.1 seed=5");
  const ByzPlan a = resolve_byz_plan(spec, 9);
  const ByzPlan b = resolve_byz_plan(spec, 9);
  ASSERT_EQ(a.agents().size(), 2u);
  ASSERT_EQ(b.agents().size(), 2u);
  EXPECT_EQ(a.agents()[0].pid, b.agents()[0].pid);
  EXPECT_EQ(a.agents()[1].pid, b.agents()[1].pid);
  spec.seed = 6;
  EXPECT_EQ(resolve_byz_plan(spec, 9).liar_count(), 2u);
}

TEST(ByzPlanResolve, HonestSpecResolvesToHonestPlan) {
  const ByzPlan plan = resolve_byz_plan(parse_byz_plan("none"), 5);
  EXPECT_TRUE(plan.honest());
  EXPECT_EQ(plan.liar_count(), 0u);
}

TEST(ByzPlan, DuplicateAssignmentThrows) {
  ByzPlan plan;
  AgentPlan a;
  a.pid = 2;
  a.behavior = Behavior::kLieConst;
  a.magnitude = 0.1;
  plan.add(a);
  EXPECT_THROW(plan.add(a), Error);
}

AgentPlan liar(Behavior b, double mag) {
  AgentPlan a;
  a.pid = 1;
  a.behavior = b;
  a.magnitude = mag;
  return a;
}

TEST(LieStamp, HistoryFloorNeverRewinds) {
  // Replay repeats the previous truth — without the clamp the recorded
  // history would go backwards and History would reject it.
  const AgentPlan a = liar(Behavior::kReplay, 0.0);
  Rng rng(3);
  ClockTime last{}, floor{};
  const ClockTime s1 =
      lie_stamp(a, 9, EventKind::kSend, ClockTime{1.0}, 0, rng, last, floor);
  const ClockTime s2 =
      lie_stamp(a, 9, EventKind::kSend, ClockTime{2.0}, 0, rng, last, floor);
  const ClockTime s3 =
      lie_stamp(a, 9, EventKind::kSend, ClockTime{3.0}, 0, rng, last, floor);
  EXPECT_LE(s1.sec, s2.sec);
  EXPECT_LE(s2.sec, s3.sec);
  // Replay of truth 3.0 reports the previous truth 2.0, clamped to the
  // floor the 2.0-replay already set.
  EXPECT_DOUBLE_EQ(s3.sec, 2.0);
}

TEST(LieStamp, OneDrawPerCallKeepsStreamsAligned) {
  // Two different behaviors consume identical stream positions, so runs
  // differing only in behavior parameters stay stream-aligned.
  Rng a(17), b(17);
  ClockTime la{}, fa{}, lb{}, fb{};
  const AgentPlan constant = liar(Behavior::kLieConst, 0.01);
  const AgentPlan random = liar(Behavior::kLieRandom, 0.01);
  for (int i = 1; i <= 5; ++i) {
    lie_stamp(constant, 9, EventKind::kSend, ClockTime{double(i)}, 0, a, la,
              fa);
    lie_stamp(random, 9, EventKind::kSend, ClockTime{double(i)}, 0, b, lb,
              fb);
  }
  EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(LiePayloadStamp, EquivocationIsSignCoordinated) {
  // Peers above the liar are told one story, peers below the opposite, at
  // per-peer magnitudes inside [3/8, 1/2] of mag — the coordinated
  // adversary quorum validation exists for.
  AgentPlan a = liar(Behavior::kEquivocate, 0.08);
  a.pid = 2;
  for (ProcessorId peer : {0u, 1u, 3u, 4u}) {
    Rng rng(5);
    ClockTime last{};
    const ClockTime out =
        lie_payload_stamp(a, 9, ClockTime{10.0}, peer, rng, last);
    const double off = out.sec - 10.0;
    if (peer > a.pid)
      EXPECT_GT(off, 0.0) << "peer " << peer;
    else
      EXPECT_LT(off, 0.0) << "peer " << peer;
    EXPECT_GE(std::fabs(off), 0.375 * a.magnitude - 1e-12);
    EXPECT_LE(std::fabs(off), 0.5 * a.magnitude + 1e-12);
  }
}

TEST(LiePayloadStamp, InactiveWindowPassesTruthThrough) {
  AgentPlan a = liar(Behavior::kLieConst, 0.05);
  a.from = 5.0;
  a.until = 8.0;
  Rng rng(5);
  ClockTime last{};
  EXPECT_DOUBLE_EQ(
      lie_payload_stamp(a, 9, ClockTime{2.0}, 0, rng, last).sec, 2.0);
  EXPECT_DOUBLE_EQ(
      lie_payload_stamp(a, 9, ClockTime{6.0}, 0, rng, last).sec, 6.05);
  EXPECT_DOUBLE_EQ(
      lie_payload_stamp(a, 9, ClockTime{9.0}, 0, rng, last).sec, 9.0);
}

}  // namespace
}  // namespace cs::byz
