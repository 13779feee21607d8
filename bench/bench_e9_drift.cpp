// E9 — Extension experiment: small clock drift (outside the paper's model).
//
// Footnote 1 and §7's open problems: real clocks drift slightly; practice
// copes by re-invoking synchronization periodically.  We quantify both
// halves empirically: (a) how much the algorithm's estimates survive small
// drift during the probe phase itself; (b) how the corrected-clock spread
// grows after synchronization, which dictates the re-sync period needed
// for a target precision.
//
// With per-clock rates in [1-rho, 1+rho], the corrected spread at horizon
// dt after sync grows like ~2*rho*dt on top of the drift-free optimum, so
// keeping precision within eps requires re-syncing about every
// (eps - A^max) / (2 rho) seconds.  Expected shape: the measured spread
// matches the 2*rho*dt envelope; rho = 0 reproduces the paper's model
// exactly.

#include <cmath>

#include "core/epochs.hpp"
#include "support.hpp"

namespace {

using namespace cs;

/// Corrected-clock spread at absolute real time T under drifting clocks:
/// max_{p,q} |(clock_p(T) + x_p) - (clock_q(T) + x_q)|.
double spread_at(double T, const std::vector<RealTime>& starts,
                 const std::vector<double>& rates,
                 const std::vector<double>& x) {
  double worst = 0.0;
  for (std::size_t p = 0; p < starts.size(); ++p)
    for (std::size_t q = p + 1; q < starts.size(); ++q) {
      const double cp = (T - starts[p].sec) * rates[p] + x[p];
      const double cq = (T - starts[q].sec) * rates[q] + x[q];
      worst = std::max(worst, std::fabs(cp - cq));
    }
  return worst;
}

}  // namespace

int main() {
  using namespace cs;
  using namespace cs::bench;

  print_header("E9", "clock drift (extension): spread growth after sync");

  constexpr int kSeeds = 10;
  Table table({"rho", "A^max claim (ms)", "spread @0s", "@1s", "@10s",
               "@100s (ms)", "2*rho*100s (ms)", "estimate failures"});

  for (const double rho : {0.0, 1e-6, 1e-5, 1e-4}) {
    Accumulator claim, s0, s1, s10, s100;
    int failures = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SystemModel model = bounded_model(make_ring(6), 0.002, 0.010);
      Rng rng(static_cast<std::uint64_t>(seed) * 613);
      SimOptions opts;
      opts.start_offsets = random_start_offsets(6, 0.25, rng);
      opts.seed = static_cast<std::uint64_t>(seed);
      opts.clock_rates.clear();
      std::vector<double> rates(6, 1.0);
      for (double& r : rates) r = 1.0 + rng.uniform(-rho, rho);
      if (rho > 0.0) {
        opts.clock_rates = rates;
        opts.check_admissible = false;  // outside the model
      }
      PingPongParams params;
      params.warmup = Duration{0.35};
      const SimResult sim = simulate(model, make_ping_pong(params), opts);
      const auto views = sim.execution.views();
      try {
        const SyncOutcome out = synchronize(model, views);
        claim.add(out.optimal_precision.finite() * 1e3);
        const auto starts = sim.execution.start_times();
        const double t_sync = 1.0;  // just after the probe phase
        s0.add(spread_at(t_sync, starts, rates, out.corrections) * 1e3);
        s1.add(spread_at(t_sync + 1, starts, rates, out.corrections) * 1e3);
        s10.add(spread_at(t_sync + 10, starts, rates, out.corrections) *
                1e3);
        s100.add(spread_at(t_sync + 100, starts, rates, out.corrections) *
                 1e3);
      } catch (const InvalidAssumption&) {
        // Drift distorted the estimated delays beyond the declared
        // bounds; the pipeline correctly refuses.
        ++failures;
      }
    }
    table.add_row({Table::num(rho, 2),
                   claim.count() ? Table::num(claim.mean()) : "-",
                   claim.count() ? Table::num(s0.mean()) : "-",
                   claim.count() ? Table::num(s1.mean()) : "-",
                   claim.count() ? Table::num(s10.mean()) : "-",
                   claim.count() ? Table::num(s100.mean()) : "-",
                   Table::num(2.0 * rho * 100.0 * 1e3),
                   std::to_string(failures)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: rho=0 row flat at the drift-free optimum; "
               "spread growth tracks the 2*rho*dt envelope; re-sync period "
               "for target eps ~ (eps - A^max)/(2 rho)\n";

  // ---- Part 2: the re-synchronization sawtooth (footnote 1 in action).
  // Continuous probing, drift rho = 1e-5, epochs every 10s: corrected
  // spread is evaluated mid-epoch under (a) always using the latest
  // epoch's corrections, (b) freezing the first epoch's corrections.
  print_header("E9b", "periodic re-sync sawtooth (rho = 3e-5, ring of 6)");
  {
    // Looser bounds than part 1: the probe phase spans ~60s, so the
    // drift-induced estimate distortion (~rho * 60s ~ 2ms) must stay
    // well inside the per-link slack or the pipeline rightly rejects.
    constexpr double rho = 3e-5;
    SystemModel model = bounded_model(make_ring(6), 0.002, 0.038);
    Rng rng(404);
    SimOptions opts;
    opts.start_offsets = random_start_offsets(6, 0.25, rng);
    opts.seed = 404;
    std::vector<double> rates(6);
    for (double& r : rates) r = 1.0 + rng.uniform(-rho, rho);
    opts.clock_rates = rates;
    opts.check_admissible = false;

    PingPongParams probing;
    probing.warmup = Duration{0.5};
    probing.spacing = Duration{2.0};
    probing.rounds = 30;  // probes cover the first ~60s
    // Actual delays sit well inside the declared bounds so the drift
    // distortion (<= 2*rho*60s ~ 3.6ms) cannot exhaust the slack.
    std::vector<std::unique_ptr<DelaySampler>> samplers;
    for (std::size_t i = 0; i < model.topology().link_count(); ++i)
      samplers.push_back(make_uniform_sampler(0.010, 0.020, 0.010, 0.020));
    const SimResult sim =
        simulate(model, make_ping_pong(probing), std::move(samplers), opts);
    const auto views = sim.execution.views();
    const auto starts = sim.execution.start_times();

    std::vector<ClockTime> boundaries;
    for (int k = 1; k <= 6; ++k)
      boundaries.push_back(ClockTime{10.0 * k});
    const auto epochs =
        epochal_synchronize_incremental(model, views, boundaries);

    Table saw({"real time (s)", "spread, re-sync (ms)",
               "spread, frozen epoch 1 (ms)"});
    for (int k = 0; k < 6; ++k) {
      const double t = 10.0 * k + 5.0;  // mid-epoch evaluation point
      // Latest boundary at or before t (epoch k-1 for t in epoch k).
      const auto& fresh =
          epochs[static_cast<std::size_t>(std::max(0, k - 1))].sync;
      const auto& frozen = epochs[0].sync;
      saw.add_row({Table::num(t),
                   Table::num(spread_at(t, starts, rates,
                                        fresh.corrections) *
                              1e3),
                   Table::num(spread_at(t, starts, rates,
                                        frozen.corrections) *
                              1e3)});
    }
    saw.print(std::cout);
    std::cout << "\nexpected: frozen column grows ~2*rho*t; re-sync column "
                 "stays near the per-epoch optimum\n";
  }
  return 0;
}
