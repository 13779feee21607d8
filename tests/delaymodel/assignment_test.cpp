#include "delaymodel/assignment.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(SystemModel, LinksDefaultToNoBounds) {
  const SystemModel m{make_line(3)};
  EXPECT_TRUE(m.has_link(0, 1));
  EXPECT_TRUE(m.has_link(1, 0));  // order-insensitive
  EXPECT_FALSE(m.has_link(0, 2));
  EXPECT_EQ(m.constraint(0, 1).describe(), "bounds[0,+inf]/[0,+inf]");
}

TEST(SystemModel, SetConstraintReplacesAndValidates) {
  SystemModel m{make_line(3)};
  m.set_constraint(make_bounds(1, 2, 0.1, 0.2));
  EXPECT_EQ(m.constraint(2, 1).describe(), "bounds[0.1,0.2]/[0.1,0.2]");
  EXPECT_THROW(m.set_constraint(make_bounds(0, 2, 0.1, 0.2)),
               InvalidAssumption);
}

TEST(SystemModel, ConstraintThrowsOnNonLink) {
  const SystemModel m{make_line(3)};
  EXPECT_THROW(m.constraint(0, 2), InvalidAssumption);
}

TEST(SystemModel, RejectsSelfDuplicateAndOutOfRangeLinks) {
  // The direction index holds exactly one slot pair per link.
  const auto refused = [](Topology topo, const std::string& why) {
    try {
      const SystemModel m{std::move(topo)};
      ADD_FAILURE() << "accepted a topology whose " << why;
    } catch (const InvalidAssumption& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  refused(Topology{3, {{1, 1}}}, "link 1-1 is a self-link");
  refused(Topology{3, {{0, 1}, {1, 2}, {0, 1}}}, "link 0-1 is listed twice");
  refused(Topology{3, {{0, 1}, {1, 0}}}, "link 1-0 is listed twice");
  refused(Topology{3, {{0, 1}, {1, 3}}},
          "link 1-3 names a processor >= the node count 3");
  // What make_ring(2) used to build with its assert compiled out.
  refused(Topology{2, {{0, 1}, {0, 1}}}, "link 0-1 is listed twice");
}

TEST(SystemModel, DirectionIndexFollowsLinkOrder) {
  const SystemModel m{make_ring(5)};
  const auto& links = m.topology().links;
  ASSERT_EQ(m.direction_count(), 2 * links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [a, b] = links[i];
    EXPECT_EQ(m.direction(a, b), 2 * i);
    EXPECT_EQ(m.direction(b, a), 2 * i + 1);
    EXPECT_EQ(&m.link_constraint(i), &m.constraint(b, a));
  }
  EXPECT_EQ(m.direction(0, 2), SystemModel::kNoDirection);
  EXPECT_EQ(m.direction(3, 3), SystemModel::kNoDirection);
  EXPECT_EQ(m.direction(7, 0), SystemModel::kNoDirection);
  EXPECT_EQ(m.direction(0xffffffffu, 0xffffffffu), SystemModel::kNoDirection);
}

TEST(SystemModel, AdmissibleChecksEveryLink) {
  SystemModel m = test::bounded_model(make_line(3), 0.1, 0.5);
  {
    const Execution good =
        test::two_node_execution(0.0, 1.0, {0.2, 0.3}, {0.4});
    // two_node_execution only uses processors 0 and 1; extend with an idle
    // processor 2.
    std::vector<History> hs;
    hs.push_back(good.history(0));
    hs.push_back(good.history(1));
    hs.emplace_back(2, RealTime{0.0});
    EXPECT_TRUE(m.admissible(Execution(std::move(hs))));
  }
  {
    const Execution bad = test::two_node_execution(0.0, 1.0, {0.7}, {});
    std::vector<History> hs;
    hs.push_back(bad.history(0));
    hs.push_back(bad.history(1));
    hs.emplace_back(2, RealTime{0.0});
    EXPECT_FALSE(m.admissible(Execution(std::move(hs))));
  }
}

TEST(SystemModel, MessageAcrossNonLinkThrows) {
  // two_node_execution sends 0<->1 but the topology only links 0-2 and 1-2.
  SystemModel m{Topology{3, {{0, 2}, {1, 2}}}};
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {});
  std::vector<History> hs;
  hs.push_back(e.history(0));
  hs.push_back(e.history(1));
  hs.emplace_back(2, RealTime{0.0});
  EXPECT_THROW(m.admissible(Execution(std::move(hs))), InvalidExecution);
}

TEST(SystemModel, LinkDelaysOrientation) {
  SystemModel m{make_line(2)};
  const Execution e = test::two_node_execution(0.0, 0.0, {0.25}, {0.75});
  const LinkDelays d = m.link_delays(e, 1, 0);  // reversed query order
  ASSERT_EQ(d.a_to_b.size(), 1u);
  ASSERT_EQ(d.b_to_a.size(), 1u);
  EXPECT_NEAR(d.a_to_b[0], 0.25, 1e-12);
  EXPECT_NEAR(d.b_to_a[0], 0.75, 1e-12);
}

}  // namespace
}  // namespace cs
