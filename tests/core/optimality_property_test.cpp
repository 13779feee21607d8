// The paper's main theorems as executable properties, swept over
// topology × delay model × seed (TEST_P).
//
// For each generated admissible execution:
//   P1  Tightness (Thm 4.6): the guaranteed precision of the SHIFTS
//       corrections equals Ã^max.
//   P2  Lower bound (Thm 4.4): no perturbed correction vector has better
//       guaranteed precision than Ã^max.
//   P3  Soundness: the realized precision on the actual execution is at
//       most Ã^max (it is one member of the equivalence class).
//   P4  Claim 3.1: corrections are a function of the views alone —
//       recomputing on a shifted-but-equivalent execution changes nothing.
//   P5  Estimate consistency (Thm 5.5 + Lemma 5.3): m̃s(p,q) computed from
//       views equals ms(p,q) from ground truth plus S_p - S_q.
//   P6  Adversary realizability (Lemma 5.3): the shift vector
//       dist_mls(p,·)/γ yields an admissible, equivalent execution whose
//       realized precision approaches Ã^max as γ -> 1 when anchored at the
//       worst pair.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/local_estimates.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "oracles/adversary.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

enum class ModelKind {
  kBounds,
  kLowerOnly,
  kNoBounds,
  kBias,
  kComposite,
  kWindowed
};

std::string kind_name(ModelKind k) {
  switch (k) {
    case ModelKind::kBounds: return "bounds";
    case ModelKind::kLowerOnly: return "lower";
    case ModelKind::kNoBounds: return "nobounds";
    case ModelKind::kBias: return "bias";
    case ModelKind::kComposite: return "composite";
    case ModelKind::kWindowed: return "windowed";
  }
  return "?";
}

SystemModel build_model(const std::string& topo_name, ModelKind kind,
                        std::uint64_t seed) {
  Rng rng(seed);
  Topology topo = make_named(topo_name, 6, rng);
  switch (kind) {
    case ModelKind::kBounds:
      return test::bounded_model(std::move(topo), 0.01, 0.05);
    case ModelKind::kLowerOnly:
      return test::lower_bound_model(std::move(topo), 0.01);
    case ModelKind::kNoBounds:
      return SystemModel(std::move(topo));
    case ModelKind::kBias:
      return test::bias_model(std::move(topo), 0.02);
    case ModelKind::kComposite:
      return test::bounded_bias_model(std::move(topo), 0.01, 0.08, 0.03);
    case ModelKind::kWindowed: {
      SystemModel m(std::move(topo));
      for (auto [a, b] : m.topology().links)
        m.set_constraint(make_windowed_bias(a, b, 0.02, 0.5));
      return m;
    }
  }
  return SystemModel(Topology{});
}

using Param = std::tuple<std::string, ModelKind, std::uint64_t>;

class OptimalityProperty : public ::testing::TestWithParam<Param> {
 protected:
  static constexpr double kTol = 1e-9;
};

TEST_P(OptimalityProperty, TheoremsHold) {
  const auto& [topo_name, kind, seed] = GetParam();
  const SystemModel model = build_model(topo_name, kind, seed);
  const SimResult sim = test::run_ping_pong(model, seed, /*skew=*/0.3);
  ASSERT_TRUE(model.admissible(sim.execution));

  const std::vector<View> views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  ASSERT_TRUE(out.bounded())
      << "ping-pong in both directions must bound every instance";
  const double a_max = out.optimal_precision.finite();
  EXPECT_GE(a_max, -kTol);

  // P1: tightness.
  EXPECT_NEAR(guaranteed_precision(out.ms_estimates, out.corrections)
                  .finite(),
              a_max, kTol);

  // P2: no perturbation does better.
  Rng rng(seed * 31 + 7);
  const std::size_t n = model.processor_count();
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> x = out.corrections;
    for (double& v : x) v += rng.uniform(-0.05, 0.05);
    EXPECT_GE(guaranteed_precision(out.ms_estimates, x).finite(),
              a_max - kTol);
  }
  // ... including some entirely unrelated vectors.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    EXPECT_GE(guaranteed_precision(out.ms_estimates, x).finite(),
              a_max - kTol);
  }

  // P3: the actual execution respects the guarantee.
  const auto starts = sim.execution.start_times();
  EXPECT_LE(realized_precision(starts, out.corrections), a_max + kTol);

  // P4: Claim 3.1 — equivalent executions give identical corrections.
  std::vector<Duration> arbitrary(n);
  for (auto& s : arbitrary) s = Duration{rng.uniform(-0.5, 0.5)};
  const Execution shifted = sim.execution.shifted(arbitrary);
  ASSERT_TRUE(shifted.equivalent_to(sim.execution));
  const auto shifted_views = shifted.views();
  const SyncOutcome out2 = synchronize(model, shifted_views);
  for (std::size_t p = 0; p < n; ++p)
    EXPECT_DOUBLE_EQ(out.corrections[p], out2.corrections[p]);

  // P5: m̃s = ms + (S_p - S_q).
  const Digraph mls_actual = local_shifts_actual(model, sim.execution);
  const DistanceMatrix ms_actual = global_shift_estimates(mls_actual);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      ASSERT_NE(ms_actual.at(p, q), kInfDist);
      EXPECT_NEAR(out.ms_estimates.at(p, q),
                  ms_actual.at(p, q) + starts[p].sec - starts[q].sec, 1e-9);
    }

  // P6: adversarial realizability.  Anchor at the argmax pair of
  // ρ̄ = m̃s(p,q) - x_p + x_q and shift everyone by dist_mls(p,·)/γ.
  // Skipped for the windowed model: its admissible-shift sets can violate
  // Assumption 1 (non-interval), in which case the Lemma 5.3 construction
  // is not guaranteed to stay admissible (see windowed_bias.hpp).
  if (kind == ModelKind::kWindowed) return;
  std::size_t worst_p = 0, worst_q = 1;
  double worst = -kInfDist;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      const double v =
          out.ms_estimates.at(p, q) - out.corrections[p] + out.corrections[q];
      if (v > worst) {
        worst = v;
        worst_p = p;
        worst_q = q;
      }
    }
  const double gamma = 1.0 + 1e-6;
  const std::vector<Duration> adv = adversarial_shifts(
      mls_actual, static_cast<NodeId>(worst_p), gamma);
  const Execution stretched = sim.execution.shifted(adv);
  EXPECT_TRUE(model.admissible(stretched));
  EXPECT_TRUE(stretched.equivalent_to(sim.execution));
  const double realized =
      realized_precision(stretched.start_times(), out.corrections);
  EXPECT_LE(realized, a_max + kTol);
  EXPECT_GE(realized, a_max - 1e-4 - kTol)
      << "worst pair (" << worst_p << "," << worst_q << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimalityProperty,
    ::testing::Combine(
        ::testing::Values("line", "ring", "star", "complete", "gnp"),
        ::testing::Values(ModelKind::kBounds, ModelKind::kLowerOnly,
                          ModelKind::kNoBounds, ModelKind::kBias,
                          ModelKind::kComposite, ModelKind::kWindowed),
        ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_" +
             kind_name(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace cs
