#include "delaymodel/link_stats.hpp"

#include <gtest/gtest.h>

#include "delaymodel/assignment.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(DirectedStats, TracksExtremesAndCount) {
  DirectedStats s;
  EXPECT_TRUE(s.dmin.is_pos_inf());
  EXPECT_TRUE(s.dmax.is_neg_inf());
  EXPECT_EQ(s.count, 0u);
  s.add(0.5);
  s.add(0.2);
  s.add(0.9);
  EXPECT_DOUBLE_EQ(s.dmin.finite(), 0.2);
  EXPECT_DOUBLE_EQ(s.dmax.finite(), 0.9);
  EXPECT_EQ(s.count, 3u);
}

TEST(LinkStats, MissingDirectionIsEmpty) {
  const SystemModel model{make_line(5)};
  LinkStats s(model);
  const DirectedStats& d = s.direction(3, 4);
  EXPECT_EQ(d.count, 0u);
  EXPECT_TRUE(d.dmin.is_pos_inf());
}

TEST(LinkStats, DirectionsAreIndependent) {
  const SystemModel model{make_line(2)};
  LinkStats s(model);
  s.add(0, 1, 0.5);
  s.add(1, 0, 0.9);
  EXPECT_DOUBLE_EQ(s.direction(0, 1).dmin.finite(), 0.5);
  EXPECT_DOUBLE_EQ(s.direction(1, 0).dmin.finite(), 0.9);
}

TEST(LinkStats, FlatLayoutFollowsTheDirectionIndex) {
  const SystemModel model{make_ring(4)};
  LinkStats s(model);
  const auto& links = model.topology().links;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [a, b] = links[i];
    s.add(a, b, static_cast<double>(i));
    s.add(b, a, 10.0 + static_cast<double>(i));
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(s.at(2 * i).dmin.finite(), static_cast<double>(i));
    EXPECT_EQ(s.at(2 * i + 1).dmax.finite(), 10.0 + static_cast<double>(i));
    EXPECT_EQ(s.at(2 * i).count, 1u);
  }
}

TEST(LinkStats, NonLinkDirectionsAreSkipped) {
  // No m̃ls edge reads a pair that is not a link, so it gets no slot.
  const SystemModel model{make_line(3)};
  LinkStats s(model);
  s.add(0, 2, 0.5);
  DirectedStats report;
  report.add(0.25);
  s.add_stats(2, 0, report);
  s.add_stats(1, 2, report);
  s.add_stats(1, 2, report);
  EXPECT_EQ(s.direction(0, 2).count, 0u);
  EXPECT_EQ(s.direction(2, 0).count, 0u);
  EXPECT_EQ(s.direction(1, 2).count, 2u);
  EXPECT_EQ(s.direction(1, 2).dmin.finite(), 0.25);
  for (std::size_t d = 0; d < model.direction_count(); ++d)
    EXPECT_EQ(s.at(d).count, d == model.direction(1, 2) ? 2u : 0u);
}

TEST(LinkStats, EstimatedVsActualDifferByStartSkew) {
  // d̃ = d + S_from - S_to, so the per-direction extremes differ by exactly
  // the start-time difference.
  const double s0 = 1.5, s1 = 4.0;
  const Execution e =
      test::two_node_execution(s0, s1, {0.3, 0.8}, {0.2, 0.4});
  const auto views = e.views();
  const SystemModel model{make_line(2)};
  const LinkStats est = LinkStats::estimated_from_views(model, views);
  const LinkStats act = LinkStats::actual_from_execution(model, e);

  EXPECT_NEAR(est.direction(0, 1).dmin.finite(),
              act.direction(0, 1).dmin.finite() + s0 - s1, 1e-12);
  EXPECT_NEAR(est.direction(0, 1).dmax.finite(),
              act.direction(0, 1).dmax.finite() + s0 - s1, 1e-12);
  EXPECT_NEAR(est.direction(1, 0).dmin.finite(),
              act.direction(1, 0).dmin.finite() + s1 - s0, 1e-12);
  EXPECT_EQ(est.direction(0, 1).count, 2u);
  EXPECT_EQ(est.direction(1, 0).count, 2u);
}

TEST(LinkStats, ActualMatchesConstructedDelays) {
  const Execution e = test::two_node_execution(0.0, 0.0, {0.3, 0.8}, {});
  const SystemModel model{make_line(2)};
  const LinkStats act = LinkStats::actual_from_execution(model, e);
  EXPECT_NEAR(act.direction(0, 1).dmin.finite(), 0.3, 1e-12);
  EXPECT_NEAR(act.direction(0, 1).dmax.finite(), 0.8, 1e-12);
  EXPECT_EQ(act.direction(1, 0).count, 0u);
}

}  // namespace
}  // namespace cs
