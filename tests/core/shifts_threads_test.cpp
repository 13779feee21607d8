// Byte-identity of compute_shifts across thread counts.
//
// ShiftsOptions::threads shards per-finiteness-component solves across the
// work-stealing pool.  Components write disjoint slices of the result and
// all float work stays inside one component, so the outputs must be
// BIT-identical — not merely close — for any worker count, cold and with
// warm-started Howard.  This is the same contract the campaign engine pins
// for whole-campaign output.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/shifts.hpp"
#include "graph/arena.hpp"

namespace cs {
namespace {

/// m̃s matrix with `blocks` finiteness components: dense consistent shifts
/// inside each block (closure of per-node offsets plus non-negative noise),
/// +inf across blocks.  Built to be a valid shortest-path closure so SHIFTS
/// accepts it.
DistanceMatrix blocky_ms(std::size_t n, std::size_t blocks, Rng& rng) {
  DistanceMatrix ms(n);
  std::vector<std::size_t> block_of(n);
  for (std::size_t v = 0; v < n; ++v) block_of[v] = v % blocks;

  // Within a block: ms(p, q) = x(q) - x(p) + slack, then Floyd–Warshall
  // closed so triangle inequality holds exactly.
  std::vector<double> x(n);
  for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (block_of[p] == block_of[q])
        ms.at(p, q) = x[q] - x[p] + rng.uniform(0.0, 0.5);
      else
        ms.at(p, q) = kInfDist;
    }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      if (ms.at(i, k) == kInfDist) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (ms.at(k, j) == kInfDist) continue;
        const double via = ms.at(i, k) + ms.at(k, j);
        if (via < ms.at(i, j)) ms.at(i, j) = via;
      }
    }
  return ms;
}

/// Bitwise equality for doubles (covers -0.0 vs 0.0 and any NaN payload).
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_identical(const ShiftsResult& a, const ShiftsResult& b) {
  EXPECT_TRUE(bits_equal(a.corrections, b.corrections));
  EXPECT_TRUE(bits_equal(a.component_a_max, b.component_a_max));
  EXPECT_EQ(a.components.component, b.components.component);
  EXPECT_EQ(a.components.component_count, b.components.component_count);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.a_max.is_finite(), b.a_max.is_finite());
  if (a.a_max.is_finite()) EXPECT_EQ(a.a_max.finite(), b.a_max.finite());
}

TEST(ShiftsThreads, ByteIdenticalAcrossThreadCountsHoward) {
  Rng rng(42);
  Metrics metrics;
  for (std::size_t n : {7u, 16u, 24u, 33u}) {
    for (std::size_t blocks : {2u, 3u, 4u, 5u}) {
      const DistanceMatrix ms = blocky_ms(n, blocks, rng);
      ShiftsOptions serial;
      serial.metrics = &metrics;
      const ShiftsResult cold = compute_shifts(ms, serial);
      for (std::size_t threads : {2u, 4u, 7u}) {
        ShiftsOptions par = serial;
        par.threads = threads;
        expect_identical(cold, compute_shifts(ms, par));
      }

      // Warm-started second epoch: the policy feedback loop must also be
      // thread-count independent.
      ShiftsOptions warm_serial = serial;
      warm_serial.warm_policy = &cold.policy;
      ShiftsOptions warm_par = warm_serial;
      warm_par.threads = 4;
      expect_identical(compute_shifts(ms, warm_serial),
                       compute_shifts(ms, warm_par));
    }
  }
}

TEST(ShiftsThreads, ArenaOptionMatchesPrivateArena) {
  Rng rng(44);
  const DistanceMatrix ms = blocky_ms(18, 3, rng);
  ShiftsOptions plain;
  const ShiftsResult ref = compute_shifts(ms, plain);

  EpochArena arena;
  ShiftsOptions with_arena;
  with_arena.arena = &arena;
  // Reused across epochs, as the incremental synchronizer drives it.
  for (int epoch = 0; epoch < 3; ++epoch)
    expect_identical(ref, compute_shifts(ms, with_arena));
}

TEST(ShiftsThreads, SingleComponentIgnoresThreadOption) {
  Rng rng(45);
  const DistanceMatrix ms = blocky_ms(12, 1, rng);
  ShiftsOptions serial;
  ShiftsOptions par;
  par.threads = 8;
  const ShiftsResult a = compute_shifts(ms, serial);
  const ShiftsResult b = compute_shifts(ms, par);
  expect_identical(a, b);
  EXPECT_TRUE(a.bounded());
}

}  // namespace
}  // namespace cs
