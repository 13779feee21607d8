// ring-epoch: one offline epoch, synchronize(model, views) with the views in
// memory, then the Thm 4.6 equality and soundness checks.  A 256-node ring
// under [1 ms, 50 ms] bounds probed by 4 ping-pong rounds: SHIFTS (Karp +
// Bellman–Ford at k = 256) is ~90% of the op, and nothing is parsed.
#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "core/local_estimates.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace cs;

constexpr std::size_t kNodes = 256;
constexpr double kLower = 0.001;
constexpr double kUpper = 0.050;
// The corrupted input declares an upper bound below the delays drawn.
constexpr double kCorruptUpper = 0.010;

class RingEpoch final : public Workload {
 public:
  void setup(std::uint64_t seed, bool corrupt, Tracer* tracer) override {
    SystemModel sim_model = bounds_model(make_ring(kNodes), kLower, kUpper);
    Rng rng(seed);
    SimOptions options;
    options.start_offsets = random_start_offsets(kNodes, 0.5, rng);
    options.seed = seed;
    PingPongParams probe;
    probe.warmup = Duration{0.6};
    probe.rounds = 4;
    SimResult sim;
    {
      Span span(tracer, "sim.simulate");
      sim = simulate(sim_model, make_ping_pong(probe), options);
    }
    views_ = sim.execution.views();
    starts_ = sim.execution.start_times();
    model_.reset();
    if (corrupt)
      model_.emplace(bounds_model(make_ring(kNodes), kLower, kCorruptUpper));
    else
      model_.emplace(std::move(sim_model));
  }

  bool op(Tracer* tracer) override {
    SyncOutcome out;
    {
      Span span(tracer, "core.synchronize");
      sync_span_ = span.id();
      out = synchronize(*model_, views_);
    }
    Span span(tracer, "core.check");
    if (!out.bounded()) return false;
    a_max_ = out.optimal_precision.finite();
    const ExtReal rho = guaranteed_precision(out.ms_estimates, out.corrections);
    const double realized = realized_precision(starts_, out.corrections);
    return rho.is_finite() && std::abs(rho.finite() - a_max_) <= 1e-9 &&
           realized <= a_max_;
  }

  bool shadow(Tracer& tracer) override {
    PairingStats pairing;
    LinkTraffic traffic;
    {
      Span span(&tracer, "delaymodel.traffic", sync_span_);
      traffic = LinkTraffic::estimated_from_views(views_, MatchPolicy::kStrict,
                                                  &pairing);
    }
    Digraph mls;
    {
      Span span(&tracer, "core.local_estimates", sync_span_);
      mls = mls_graph_from_traffic(*model_, traffic);
    }
    DistanceMatrix ms;
    {
      Span span(&tracer, "core.global_estimates", sync_span_);
      ms = global_shift_estimates(mls);
    }
    ShiftsResult shifts;
    {
      Span span(&tracer, "core.shifts", sync_span_);
      shifts = compute_shifts(ms);
    }
    paired_ = pairing.paired;
    mls_edges_ = mls.edge_count();
    shifts_k_ = ms.size();
    return shifts.bounded() && shifts.a_max.finite() == a_max_;
  }

  void layer_metrics(const Tracer& tracer, Values& out) const override {
    out["sim.simulate_ms"] = tracer.median_ms("sim.simulate");
    out["delaymodel.traffic_ms"] = tracer.median_ms("delaymodel.traffic");
    out["core.local_estimates_ms"] = tracer.median_ms("core.local_estimates");
    out["core.global_estimates_ms"] =
        tracer.median_ms("core.global_estimates");
    out["core.shifts_ms"] = tracer.median_ms("core.shifts");
    out["core.sync_self_ms"] = tracer.median_ms("core.synchronize");
    out["core.check_ms"] = tracer.median_ms("core.check");
    out["delaymodel.paired_messages"] = static_cast<double>(paired_);
    out["core.mls_edges"] = static_cast<double>(mls_edges_);
    out["core.shifts_k"] = static_cast<double>(shifts_k_);
  }

 private:
  std::optional<SystemModel> model_;
  std::vector<View> views_;
  std::vector<RealTime> starts_;
  std::int32_t sync_span_{-1};
  double a_max_{0.0};
  std::size_t paired_{0};
  std::size_t mls_edges_{0};
  std::size_t shifts_k_{0};
};

}  // namespace

std::unique_ptr<Workload> make_ring_epoch() {
  return std::make_unique<RingEpoch>();
}

}  // namespace bench
