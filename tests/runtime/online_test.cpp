// OnlineEstimator and OnlineViewBuilder unit tests: the epoch-cut
// predicate must agree with the offline View::prefix × kDropOrphans
// semantics, a later cut must report only its delta, duplicates must be
// ignored keep-earliest, and the report lists directions peer ascending.

#include <gtest/gtest.h>

#include <limits>

#include "runtime/online.hpp"

namespace cs {
namespace {

ClockTime ct(double sec) { return ClockTime{sec}; }

TEST(OnlineEstimator, BanksExtremesPerDirection) {
  OnlineEstimator est;
  est.ingest(1, 10, ct(0.0), ct(0.030));
  est.ingest(1, 11, ct(0.1), ct(0.112));
  est.ingest(2, 12, ct(0.2), ct(0.290));

  const std::vector<DirectionExtremes> report = est.take_report(ct(1.0));
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].peer, 1u);
  EXPECT_EQ(report[0].count, 2u);
  // The exact doubles the estimator computes, d̃ = recv − send.
  EXPECT_EQ(report[0].dmin, 0.112 - 0.1);
  EXPECT_EQ(report[0].dmax, 0.030 - 0.0);
  EXPECT_EQ(report[1].peer, 2u);
  EXPECT_EQ(report[1].count, 1u);
  EXPECT_EQ(report[1].dmin, report[1].dmax);
}

TEST(OnlineEstimator, DuplicateMessageIdsKeepEarliest) {
  OnlineEstimator est;
  est.ingest(1, 10, ct(0.0), ct(0.020));
  // A redelivery of the same message id with a later (larger d̃) stamp
  // must not widen the extremes.
  est.ingest(1, 10, ct(0.0), ct(0.500));
  const std::vector<DirectionExtremes> report = est.take_report(ct(1.0));
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].count, 1u);
  EXPECT_EQ(report[0].dmax, 0.020);
  // The id stays seen after its observation is reported and forgotten.
  est.ingest(1, 10, ct(1.5), ct(1.9));
  EXPECT_TRUE(est.take_report(ct(2.0)).empty());
}

TEST(OnlineEstimator, NonFiniteDelayIsNotBanked) {
  OnlineEstimator est;
  est.ingest(1, 10, ct(std::numeric_limits<double>::quiet_NaN()), ct(0.5));
  est.ingest(1, 11, ct(-std::numeric_limits<double>::infinity()), ct(0.5));
  est.ingest(1, 12, ct(0.1), ct(0.15));
  const std::vector<DirectionExtremes> report = est.take_report(ct(1.0));
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].count, 1u);
  EXPECT_EQ(report[0].dmin, 0.15 - 0.1);
}

TEST(OnlineEstimator, TakeReportAppliesThePrefixCut) {
  OnlineEstimator est;
  est.ingest(1, 10, ct(0.10), ct(0.15));  // both < 1: inside the cut
  est.ingest(1, 11, ct(0.95), ct(1.05));  // recv >= 1: orphaned at T=1
  est.ingest(1, 12, ct(1.00), ct(1.10));  // send == T: strictly-before fails

  const std::vector<DirectionExtremes> cut1 = est.take_report(ct(1.0));
  ASSERT_EQ(cut1.size(), 1u);
  EXPECT_EQ(cut1[0].peer, 1u);
  EXPECT_EQ(cut1[0].count, 1u);
  EXPECT_EQ(cut1[0].dmin, 0.15 - 0.10);

  // The next cumulative cut reports only the delta: the two observations
  // that crossed the T=1 boundary, not the one already reported.
  const std::vector<DirectionExtremes> cut2 = est.take_report(ct(2.0));
  ASSERT_EQ(cut2.size(), 1u);
  EXPECT_EQ(cut2[0].count, 2u);
  EXPECT_EQ(cut2[0].dmin, std::min(1.05 - 0.95, 1.10 - 1.00));
  EXPECT_EQ(cut2[0].dmax, std::max(1.05 - 0.95, 1.10 - 1.00));

  EXPECT_TRUE(est.take_report(ct(3.0)).empty());
}

TEST(OnlineEstimator, TakeReportOrdersByPeer) {
  OnlineEstimator est;
  est.ingest(3, 20, ct(0.3), ct(0.35));
  est.ingest(1, 21, ct(0.1), ct(0.15));
  est.ingest(3, 22, ct(0.2), ct(0.26));

  const std::vector<DirectionExtremes> cut = est.take_report(ct(1.0));
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut[0].peer, 1u);
  EXPECT_EQ(cut[0].count, 1u);
  EXPECT_EQ(cut[1].peer, 3u);
  EXPECT_EQ(cut[1].count, 2u);
  EXPECT_EQ(cut[1].dmin, 0.35 - 0.3);
  EXPECT_EQ(cut[1].dmax, 0.26 - 0.2);
}

TEST(OnlineViewBuilder, AppendsEventsPerProcessor) {
  OnlineViewBuilder builder(2);
  builder.start(0);
  builder.start(1);
  builder.send(0, ct(0.1), 1, 1);
  builder.receive(1, ct(0.2), 1, 0);
  builder.timer_set(0, ct(0.1), ct(0.5));
  builder.timer_fire(0, ct(0.5), ct(0.5));

  ASSERT_EQ(builder.views().size(), 2u);
  // start + send + timer_set + timer_fire; start + receive.
  EXPECT_EQ(builder.views()[0].events.size(), 4u);
  EXPECT_EQ(builder.views()[1].events.size(), 2u);
  EXPECT_EQ(builder.views()[0].sends().size(), 1u);
  EXPECT_EQ(builder.views()[1].receives().size(), 1u);
}

}  // namespace
}  // namespace cs
