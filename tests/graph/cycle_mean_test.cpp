#include "oracles/cycle_mean.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/arena.hpp"

namespace cs {
namespace {

TEST(CycleMean, AcyclicHasNone) {
  Digraph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, -3.0);
  EXPECT_FALSE(max_cycle_mean_karp(g).has_value());
  EXPECT_FALSE(max_cycle_mean_bsearch(g).has_value());
  EXPECT_FALSE(max_cycle_mean_brute(g).has_value());
}

TEST(CycleMean, SelfLoop) {
  Digraph g(2);
  g.add_edge(0, 0, 4.0);
  g.add_edge(0, 1, 100.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 4.0);
}

TEST(CycleMean, TwoCycle) {
  Digraph g(2);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 0, 5.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 4.0);
}

TEST(CycleMean, PicksBestOfTwoCycles) {
  // Cycle A: 0-1 mean 2; cycle B: 2-3 mean 6.
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 3.0);
  g.add_edge(2, 3, 5.0);
  g.add_edge(3, 2, 7.0);
  g.add_edge(1, 2, -100.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 6.0);
}

TEST(CycleMean, LongCycleBeatsShort) {
  // Triangle with mean 10 vs 2-cycle with mean 9.
  Digraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(2, 0, 10.0);
  g.add_edge(0, 2, 8.0);  // with 2->0: mean 9
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 10.0);
}

TEST(CycleMean, NegativeWeights) {
  Digraph g(2);
  g.add_edge(0, 1, -3.0);
  g.add_edge(1, 0, -5.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, -4.0);
}

TEST(CycleMean, MinIsNegatedMaxOfNegation) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 0, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  const auto mn = min_cycle_mean_karp(g);
  ASSERT_TRUE(mn.has_value());
  EXPECT_DOUBLE_EQ(*mn, 1.0);
}

class CycleMeanRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CycleMeanRandom, KarpMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(6);
    Digraph g(n);
    const std::size_t edges = 1 + rng.uniform_int(2 * n);
    for (std::size_t e = 0; e < edges; ++e)
      g.add_edge(static_cast<NodeId>(rng.uniform_int(n)),
                 static_cast<NodeId>(rng.uniform_int(n)),
                 rng.uniform(-10.0, 10.0));
    const auto brute = max_cycle_mean_brute(g);
    const auto karp = max_cycle_mean_karp(g);
    ASSERT_EQ(brute.has_value(), karp.has_value());
    if (brute) {
      EXPECT_NEAR(*brute, *karp, 1e-9);
    }
  }
}

TEST_P(CycleMeanRandom, BsearchMatchesKarp) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(8);
    Digraph g(n);
    // Guarantee at least one cycle via a ring, then add noise edges.
    for (NodeId v = 0; v < n; ++v)
      g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(-5.0, 5.0));
    for (std::size_t e = 0; e < n; ++e)
      g.add_edge(static_cast<NodeId>(rng.uniform_int(n)),
                 static_cast<NodeId>(rng.uniform_int(n)),
                 rng.uniform(-5.0, 5.0));
    const auto karp = max_cycle_mean_karp(g);
    const auto bs = max_cycle_mean_bsearch(g, 1e-10);
    ASSERT_TRUE(karp.has_value());
    ASSERT_TRUE(bs.has_value());
    EXPECT_NEAR(*karp, *bs, 1e-7);
  }
}

TEST_P(CycleMeanRandom, HowardMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(6);
    Digraph g(n);
    const std::size_t edges = 1 + rng.uniform_int(2 * n);
    for (std::size_t e = 0; e < edges; ++e)
      g.add_edge(static_cast<NodeId>(rng.uniform_int(n)),
                 static_cast<NodeId>(rng.uniform_int(n)),
                 rng.uniform(-10.0, 10.0));
    const auto brute = max_cycle_mean_brute(g);
    const auto howard = max_cycle_mean_howard(g);
    ASSERT_EQ(brute.has_value(), howard.has_value());
    if (brute) {
      EXPECT_NEAR(*brute, *howard, 1e-9);
    }
  }
}

TEST_P(CycleMeanRandom, HowardMatchesKarpOnDenseGraphs) {
  Rng rng(GetParam() * 77 + 5);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.uniform_int(12);
    Digraph g(n);
    for (NodeId p = 0; p < n; ++p)
      for (NodeId q = 0; q < n; ++q)
        if (p != q) g.add_edge(p, q, rng.uniform(-5.0, 5.0));
    const auto karp = max_cycle_mean_karp(g);
    const auto howard = max_cycle_mean_howard(g);
    ASSERT_TRUE(karp && howard);
    EXPECT_NEAR(*karp, *howard, 1e-9);
  }
}

TEST_P(CycleMeanRandom, HowardDenseMatchesGraphHowardExactly) {
  // The dense SHIFTS kernel skips improvement scans that cannot change the
  // policy; its policies and means must still equal the edge-list
  // iteration's bit for bit, cold and warm-started.  Integer weights make
  // ties, and with them multi-chain policies, common.
  Rng rng(GetParam() * 131 + 9);
  EpochArena arena;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t k = 2 + rng.uniform_int(40);
    const bool ties = trial % 2 == 0;
    std::vector<double> w(k * k, 0.0);
    Digraph g(k);
    for (NodeId p = 0; p < k; ++p)
      for (NodeId q = 0; q < k; ++q) {
        if (p == q) continue;
        w[p * k + q] = ties ? static_cast<double>(rng.uniform_int(4))
                            : rng.uniform(-5.0, 5.0);
        g.add_edge(p, q, w[p * k + q]);
      }
    std::vector<NodeId> seed(k);
    for (NodeId p = 0; p < k; ++p)
      seed[p] = static_cast<NodeId>(rng.uniform_int(k));
    for (const bool warm : {false, true}) {
      arena.reset();
      std::vector<NodeId> policy(k);
      const HowardDenseResult dense = max_cycle_mean_howard_dense(
          w.data(), k, warm ? std::span<const NodeId>(seed)
                            : std::span<const NodeId>(),
          policy, arena, nullptr);
      const HowardResult graph =
          max_cycle_mean_howard_warm(g, warm ? &seed : nullptr);
      ASSERT_TRUE(dense.converged && graph.converged && graph.mean);
      EXPECT_EQ(dense.mean, *graph.mean) << "k " << k << " warm " << warm;
      EXPECT_EQ(policy, graph.policy) << "k " << k << " warm " << warm;
      // The value vector is a feasible potential for the mean.
      ASSERT_EQ(dense.value.size(), k);
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t q = 0; q < k; ++q)
          if (p != q)
            EXPECT_LE(w[p * k + q] + dense.value[q] - dense.value[p],
                      dense.mean + 1e-9);
    }
  }
}

TEST(CycleMean, HowardHandlesSelfLoopsAndComponents) {
  Digraph g(4);
  g.add_edge(0, 0, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 1, 7.0);
  // Node 3 isolated: no cycle through it.
  const auto m = max_cycle_mean_howard(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 4.0);
}

TEST(CycleMean, HowardAcyclicHasNone) {
  Digraph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 5.0);
  EXPECT_FALSE(max_cycle_mean_howard(g).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleMeanRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CycleMean, DisconnectedComponentsBothConsidered) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 3, 9.0);
  g.add_edge(3, 2, 9.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 9.0);
}

}  // namespace
}  // namespace cs
