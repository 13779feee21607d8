#include "graph/topology.hpp"

#include <gtest/gtest.h>

#include <string>

#include <set>

#include "common/error.hpp"

namespace cs {
namespace {

void expect_well_formed(const Topology& t) {
  std::set<std::pair<NodeId, NodeId>> seen;
  for (auto [a, b] : t.links) {
    EXPECT_LT(a, b) << "links must be canonically ordered";
    EXPECT_LT(b, t.node_count);
    EXPECT_TRUE(seen.insert({a, b}).second) << "duplicate link";
  }
}

TEST(Topology, Line) {
  const Topology t = make_line(5);
  EXPECT_EQ(t.node_count, 5u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
}

TEST(Topology, Ring) {
  const Topology t = make_ring(6);
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
  const auto adj = t.adjacency();
  for (const auto& nbrs : adj) EXPECT_EQ(nbrs.size(), 2u);
}

TEST(Topology, Star) {
  const Topology t = make_star(7);
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.adjacency()[0].size(), 6u);
  expect_well_formed(t);
}

TEST(Topology, Complete) {
  const Topology t = make_complete(6);
  EXPECT_EQ(t.link_count(), 15u);
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
}

TEST(Topology, Grid) {
  const Topology t = make_grid(3, 4);
  EXPECT_EQ(t.node_count, 12u);
  EXPECT_EQ(t.link_count(), 3u * 3 + 2u * 4);  // 2*w*h - w - h
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
}

TEST(Topology, RandomTree) {
  Rng rng(3);
  const Topology t = make_random_tree(20, rng);
  EXPECT_EQ(t.link_count(), 19u);
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
}

TEST(Topology, ConnectedGnp) {
  Rng rng(4);
  for (double p : {0.0, 0.3, 1.0}) {
    const Topology t = make_connected_gnp(12, p, rng);
    EXPECT_TRUE(t.connected());
    EXPECT_GE(t.link_count(), 11u);
    expect_well_formed(t);
  }
  const Topology full = make_connected_gnp(6, 1.0, rng);
  EXPECT_EQ(full.link_count(), 15u);
}

TEST(Topology, Wan) {
  Rng rng(5);
  const Topology t = make_wan(30, 5, rng);
  EXPECT_EQ(t.node_count, 30u);
  EXPECT_TRUE(t.connected());
  expect_well_formed(t);
}

TEST(Topology, SingleAndTwoNodeEdgeCases) {
  EXPECT_TRUE(make_line(1).connected());
  EXPECT_EQ(make_line(1).link_count(), 0u);
  EXPECT_TRUE(make_line(2).connected());
  EXPECT_TRUE(make_star(2).connected());
  EXPECT_TRUE(make_complete(1).connected());
}

TEST(Topology, DisconnectedDetected) {
  Topology t{4, {{0, 1}, {2, 3}}};
  EXPECT_FALSE(t.connected());
}

TEST(Topology, GeneratorsRejectBadSizesInEveryBuild) {
  // Command lines and spec grammars reach these; the checks are not
  // asserts, so Release builds refuse the same arguments.
  const auto refused = [](auto make, const std::string& why) {
    try {
      make();
      ADD_FAILURE() << "accepted: " << why;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  Rng rng(4);
  const std::size_t unit[] = {1};
  const std::size_t too_long[] = {1, 4};
  const std::size_t zero[] = {0};
  refused([] { return make_ring(0); }, "ring needs n >= 3, got n = 0");
  refused([] { return make_ring(2); }, "ring needs n >= 3, got n = 2");
  refused([] { return make_star(1); }, "star needs n >= 2, got n = 1");
  refused([] { return make_grid(0, 3); }, "grid needs both sides >= 1, got 0x3");
  refused([&] { return make_circulant(2, unit); },
          "circulant needs n >= 3, got n = 2");
  refused([&] { return make_circulant(4, too_long); },
          "circulant stride 4 is outside [1, n) for n = 4");
  refused([&] { return make_circulant(5, zero); },
          "circulant stride 0 is outside [1, n) for n = 5");
  refused([&] { return make_connected_gnp(5, 1.5, rng); },
          "gnp needs 0 <= p <= 1");
  refused([&] { return make_wan(2, 3, rng); },
          "wan needs 3 <= hubs <= n, got 3 hubs for n = 2");
  refused([&] { return make_wan(10, 2, rng); },
          "wan needs 3 <= hubs <= n, got 2 hubs for n = 10");
  refused([&] { return make_named("ring", 2, rng); }, "ring needs n >= 3");
  refused([&] { return make_named("wan", 2, rng); }, "wan needs 3 <= hubs");
  // A stride and its complement give the same chords: strides {1, 2, 3}
  // on four nodes are K4, as before the checks.
  const std::size_t lab[] = {1, 2, 3};
  EXPECT_EQ(make_circulant(4, lab).link_count(), 6u);
}

TEST(Topology, MakeNamed) {
  Rng rng(6);
  for (const char* name :
       {"line", "ring", "star", "complete", "grid", "tree", "gnp", "wan"}) {
    const Topology t = make_named(name, 12, rng);
    EXPECT_TRUE(t.connected()) << name;
    EXPECT_GE(t.node_count, 12u) << name;
  }
  EXPECT_THROW(make_named("moebius", 12, rng), Error);
}

}  // namespace
}  // namespace cs
