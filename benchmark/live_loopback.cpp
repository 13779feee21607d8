// live-loopback: one run_live over the deterministic virtual-time loopback
// with the offline bit-for-bit check on.  Complete-16, 4 epochs: the §7
// runtime (dispatch, online estimator, leader compute, dissemination) is
// ~3/4 of the op and the offline check the rest; no sockets, no parser.
#include <optional>

#include "runtime/daemon.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace cs;

class LiveLoopback final : public Workload {
 public:
  void setup(std::uint64_t seed, bool /*corrupt*/,
             Tracer* /*tracer*/) override {
    model_.reset();
    model_.emplace(bounds_model(make_complete(16), 0.001, 0.050));
    config_ = LiveConfig{};
    config_.seed = seed;
    config_.transport = LiveTransportKind::kLoopback;
    config_.agent.epochs = 4;
    config_.offline_check = true;
  }

  bool op(Tracer* tracer) override {
    LiveReport report;
    {
      Span span(tracer, "runtime.run_live");
      live_span_ = span.id();
      report = run_live(*model_, config_);
    }
    dispatched_ = report.dispatched;
    reports_ = 0;
    acks_ = 0;
    bool ok = report.converged && report.checked && report.all_match &&
              report.epochs.size() == config_.agent.epochs;
    for (const LiveEpochReport& epoch : report.epochs) {
      reports_ += epoch.reports_absorbed;
      acks_ += epoch.acks;
      ok = ok && epoch.claimed_precision && epoch.realized_precision &&
           *epoch.realized_precision <= *epoch.claimed_precision;
    }
    return ok;
  }

  bool shadow(Tracer& tracer) override {
    LiveConfig protocol_only = config_;
    protocol_only.offline_check = false;
    LiveReport report;
    {
      Span span(&tracer, "runtime.protocol", live_span_);
      report = run_live(*model_, protocol_only);
    }
    return report.converged && report.dispatched == dispatched_;
  }

  void layer_metrics(const Tracer& tracer, Values& out) const override {
    const double protocol_ms = tracer.median_ms("runtime.protocol");
    out["runtime.protocol_ms"] = protocol_ms;
    out["runtime.offline_check_ms"] = tracer.median_ms("runtime.run_live");
    out["runtime.events"] = static_cast<double>(dispatched_);
    out["runtime.events_per_s"] =
        protocol_ms > 0.0 ? 1e3 * static_cast<double>(dispatched_) / protocol_ms
                          : 0.0;
    out["runtime.reports_absorbed"] = static_cast<double>(reports_);
    out["runtime.acks"] = static_cast<double>(acks_);
  }

 private:
  std::optional<SystemModel> model_;
  LiveConfig config_;
  std::int32_t live_span_{-1};
  std::size_t dispatched_{0};
  std::size_t reports_{0};
  std::size_t acks_{0};
};

}  // namespace

std::unique_ptr<Workload> make_live_loopback() {
  return std::make_unique<LiveLoopback>();
}

}  // namespace bench
