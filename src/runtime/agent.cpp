#include "runtime/agent.hpp"

#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/incremental.hpp"
#include "core/local_estimates.hpp"
#include "delaymodel/extremes.hpp"
#include "runtime/online.hpp"

namespace cs {

LiveResults::LiveResults(std::size_t agents, const SyncAgentParams& params)
    : agents_(agents) {
  const std::vector<ClockTime> bounds = sync_agent_boundaries(params);
  epochs_.resize(bounds.size());
  acked_.assign(bounds.size(), std::vector<bool>(agents, false));
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    epochs_[k].epoch = k + 1;
    epochs_[k].boundary = bounds[k];
  }
}

LiveEpoch& LiveResults::epoch(std::size_t k) {
  if (k == 0 || k > epochs_.size())
    throw Error("LiveResults: epoch index out of range");
  return epochs_[k - 1];
}

void LiveResults::ack(std::size_t k, ProcessorId pid) {
  LiveEpoch& e = epoch(k);
  std::vector<bool>& seen = acked_[k - 1];
  if (pid >= agents_ || seen[pid]) return;
  seen[pid] = true;
  ++e.acks;
}

bool LiveResults::all_complete() const {
  for (const LiveEpoch& e : epochs_)
    if (!e.computed() || e.acks < agents_) return false;
  return true;
}

std::vector<ClockTime> sync_agent_boundaries(const SyncAgentParams& params) {
  std::vector<ClockTime> out;
  out.reserve(params.epochs);
  // Iterative addition: agents arm their report timers with exactly these
  // doubles, so the offline driver handed this vector cuts at identical
  // boundaries.
  ClockTime t = ClockTime{} + params.report_at;
  for (std::size_t k = 0; k < params.epochs; ++k) {
    out.push_back(t);
    t = t + params.period;
  }
  return out;
}

namespace {

struct ReportHeader {
  ProcessorId origin{0};
  std::size_t epoch{0};  // 1-based

  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(origin) << 32) | epoch;
  }
};

class SyncAgentAutomaton final : public Automaton {
 public:
  SyncAgentAutomaton(ProcessorId self, const SystemModel* model,
                     const SyncAgentParams& params, LiveResults* results)
      : self_(self), model_(model), params_(params), results_(results) {
    if (params_.byz != nullptr) {
      const byz::AgentPlan* a = params_.byz->agent(self_);
      if (a != nullptr && a->lies()) {
        liar_ = a;
        // Same per-pid stream split as the simulator's ByzInjector, so a
        // live liar and a simulated one draw identical noise.
        byz_rng_ = Rng(params_.byz->seed).split(self_);
      }
    }
    if (self_ == params_.leader) {
      SyncOptions sync = params_.sync;
      sync.root = params_.leader;
      sync.match = MatchPolicy::kDropOrphans;
      synchronizer_.emplace(*model_, sync);
      stats_.emplace(*model_);
      report_count_.assign(params_.epochs + 1, 0);
      pending_.resize(params_.epochs + 1);
    }
  }

  void on_start(Context& ctx) override {
    boundaries_ = sync_agent_boundaries(params_);
    if (params_.rounds > 0)
      arm(ctx, ctx.now() + params_.warmup, Timer::kProbe, 1);
    arm(ctx, boundaries_[0], Timer::kReport, 1);
  }

  void on_timer(Context& ctx, ClockTime at) override {
    // Timers are discriminated by their armed clock value, which the host
    // and the simulator both hand back verbatim.
    const auto it = timers_.find(at.sec);
    if (it == timers_.end()) return;
    const Armed armed = it->second;
    timers_.erase(it);
    switch (armed.kind) {
      case Timer::kProbe:
        do_probe(ctx, armed.epoch);
        break;
      case Timer::kReport:
        do_report(ctx, armed.epoch);
        break;
      case Timer::kGrace:
        do_grace(ctx, armed.epoch);
        break;
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    switch (msg.payload.tag) {
      case kTagLiveProbe: {
        ingest(ctx, msg);
        Payload echo;
        echo.tag = kTagLiveEcho;
        echo.data = {stamp_for(ctx, msg.from)};
        ctx.send(msg.from, echo);
        break;
      }
      case kTagLiveEcho:
        ingest(ctx, msg);
        break;
      case kTagLiveReport:
        handle_report(ctx, msg);
        break;
      case kTagLiveCorrections:
        handle_corrections(ctx, msg);
        break;
      default:
        break;
    }
  }

 private:
  enum class Timer { kProbe, kReport, kGrace };
  struct Armed {
    Timer kind;
    std::size_t epoch;  // 1-based
  };

  void arm(Context& ctx, ClockTime at, Timer kind, std::size_t epoch) {
    timers_.emplace(at.sec, Armed{kind, epoch});
    ctx.set_timer(at);
  }

  void ingest(Context& ctx, const Message& msg) {
    if (msg.payload.data.empty()) return;
    estimator_.ingest(msg.from, msg.id, ClockTime{msg.payload.data[0]},
                      ctx.now());
  }

  void do_probe(Context& ctx, std::size_t epoch) {
    // Per-neighbor payloads: honest agents stamp identical values, an
    // equivocator tells each neighbor its own story.
    for (ProcessorId nb : ctx.neighbors()) {
      Payload probe;
      probe.tag = kTagLiveProbe;
      probe.data = {stamp_for(ctx, nb)};
      ctx.send(nb, probe);
    }
    if (++rounds_sent_ < params_.rounds)
      arm(ctx, ctx.now() + params_.spacing, Timer::kProbe, epoch);
  }

  /// The clock stamp written into a payload addressed to `peer`; truthful
  /// unless this agent is assigned a lie (byz/plan.hpp).
  double stamp_for(Context& ctx, ProcessorId peer) {
    const ClockTime truth = ctx.now();
    if (liar_ == nullptr) return truth.sec;
    return byz::lie_payload_stamp(*liar_, params_.byz->seed, truth, peer,
                                  byz_rng_, byz_last_truth_)
        .sec;
  }

  // Report payload: [origin, epoch, then the extremes payload of the
  // observations newly inside this boundary's cut] (delaymodel/
  // extremes.hpp).  The leader's fold of every delta is the cumulative
  // LinkStats of the cut.
  void do_report(Context& ctx, std::size_t epoch) {
    ReportedExtremes delta{self_,
                           estimator_.take_report(boundaries_[epoch - 1])};
    if (self_ == params_.leader) {
      absorb(epoch, std::move(delta));
      maybe_compute(ctx);
      if (params_.grace > Duration{0.0} && computed_through_ < epoch)
        arm(ctx, ctx.now() + params_.grace, Timer::kGrace, epoch);
    } else {
      std::vector<double> data = {static_cast<double>(self_),
                                  static_cast<double>(epoch)};
      encode_extremes(delta.dirs, data);
      // Built once; every neighbor's copy shares the buffer.
      const Payload report{kTagLiveReport, data};
      for (ProcessorId nb : ctx.neighbors()) ctx.send(nb, report);
    }

    // Schedule the next epoch: a fresh probe phase, then its boundary.
    if (epoch < params_.epochs) {
      rounds_sent_ = 0;
      if (params_.rounds > 0)
        arm(ctx, ctx.now() + params_.spacing, Timer::kProbe, epoch + 1);
      arm(ctx, boundaries_[epoch], Timer::kReport, epoch + 1);
    }
  }

  void handle_report(Context& ctx, const Message& msg) {
    // A flood duplicate is dropped on its header alone.  A first copy is
    // checked in full; a malformed one is dropped whole — not absorbed, not
    // forwarded, and not marked seen, so it cannot shadow the real report.
    // Only the leader keeps the decoded records.
    const std::span<const double> d(msg.payload.data.begin(),
                                    msg.payload.data.size());
    const std::optional<ReportHeader> head = read_header(d);
    if (!head || seen_reports_.contains(head->key())) return;
    const bool leader = self_ == params_.leader;
    ReportedExtremes report{head->origin, {}};
    if (!decode_extremes(d.subspan(2), model_->processor_count(),
                         leader ? &report.dirs : nullptr))
      return;
    seen_reports_.insert(head->key());

    if (leader) {
      absorb(head->epoch, std::move(report));
      maybe_compute(ctx);
    } else {
      for (ProcessorId nb : ctx.neighbors())
        if (nb != msg.from) ctx.send(nb, msg.payload);
    }
  }

  /// A report's (origin, epoch), checked: origin < n, 1 <= epoch <= epochs.
  std::optional<ReportHeader> read_header(std::span<const double> d) const {
    if (d.size() < 2) return std::nullopt;
    const auto origin = wire_integer(d[0], 0, model_->processor_count() - 1);
    const auto epoch = wire_integer(d[1], 1, params_.epochs);
    if (!origin || !epoch) return std::nullopt;
    return ReportHeader{static_cast<ProcessorId>(*origin), *epoch};
  }

  /// Stages an accepted report (the leader's own, or one handle_report has
  /// decoded) for its epoch's compute.
  void absorb(std::size_t epoch, ReportedExtremes report) {
    if (epoch <= computed_through_) {
      // The epoch was already (degraded-)computed; the late extremes
      // still join the cumulative stats for the next boundary.
      add_extremes(*stats_, report);
    } else {
      pending_[epoch].push_back(std::move(report));
    }
    ++report_count_[epoch];
    results_->epoch(epoch).reports_absorbed = report_count_[epoch];
  }

  void maybe_compute(Context& ctx) {
    while (computed_through_ < params_.epochs &&
           report_count_[computed_through_ + 1] >=
               model_->processor_count())
      compute(ctx, computed_through_ + 1, /*degraded=*/false);
  }

  void do_grace(Context& ctx, std::size_t epoch) {
    // Deadline for epoch `epoch`: compute everything still owed up to it
    // from whatever arrived, then resume normal sequencing.
    while (computed_through_ < epoch) {
      const std::size_t next = computed_through_ + 1;
      compute(ctx, next,
              report_count_[next] < model_->processor_count());
    }
    maybe_compute(ctx);
  }

  void compute(Context& ctx, std::size_t epoch, bool degraded) {
    // Fold staged deltas of every epoch up to this boundary, in epoch
    // order then arrival order, into the cumulative stats.
    for (std::size_t e = 1; e <= epoch; ++e) {
      for (const ReportedExtremes& report : pending_[e])
        add_extremes(*stats_, report);
      pending_[e].clear();
    }
    computed_through_ = epoch;

    Digraph mls = mls_graph_from_stats(*model_, *stats_);
    LiveEpoch& result = results_->epoch(epoch);
    SyncOutcome out;
    bool detected = false;
    try {
      out = synchronizer_->step_mls(std::move(mls));
    } catch (const InvalidAssumption&) {
      // The cumulative stats contradict the declared delay assumptions —
      // either the bounds are wrong or someone is lying (byz/plan.hpp).
      // Treat it as a detected outage, not a crash: the epoch computes no
      // corrections, the outage is flooded so every agent acks and the
      // protocol terminates, and the next boundary retries from a clean
      // synchronizer (step_mls resets on failure).
      detected = true;
    }

    result.detected = detected;
    result.degraded = degraded;
    if (detected) {
      result.claimed_precision = std::numeric_limits<double>::infinity();
    } else {
      result.corrections = out.corrections;
      result.claimed_precision = out.optimal_precision.value();
    }
    results_->ack(epoch, self_);

    // Corrections payload: [epoch, flags, precision, count, then count
    // corrections].
    std::vector<double> data = {
        static_cast<double>(epoch),
        (degraded ? 1.0 : 0.0) + (detected ? 2.0 : 0.0),
        *result.claimed_precision,
        static_cast<double>(out.corrections.size())};
    data.insert(data.end(), out.corrections.begin(), out.corrections.end());
    const Payload corr{kTagLiveCorrections, data};
    seen_corrections_.insert(epoch);
    for (ProcessorId nb : ctx.neighbors()) ctx.send(nb, corr);
  }

  void handle_corrections(Context& ctx, const Message& msg) {
    // A malformed frame is dropped whole: not acked, not forwarded.
    const PayloadData& d = msg.payload.data;
    if (d.size() < 4) return;
    const auto epoch = wire_integer(d[0], 1, params_.epochs);
    if (!epoch || !wire_integer(d[3], d.size() - 4, d.size() - 4)) return;
    if (!seen_corrections_.insert(*epoch).second) return;
    results_->ack(*epoch, self_);
    for (ProcessorId nb : ctx.neighbors())
      if (nb != msg.from) ctx.send(nb, msg.payload);
  }

  ProcessorId self_;
  const SystemModel* model_;
  SyncAgentParams params_;
  LiveResults* results_;

  std::vector<ClockTime> boundaries_;
  std::multimap<double, Armed> timers_;
  std::size_t rounds_sent_{0};

  OnlineEstimator estimator_;
  std::set<std::uint64_t> seen_reports_;
  std::set<std::size_t> seen_corrections_;

  // Byzantine payload-lie state (set iff this agent is assigned a lie).
  const byz::AgentPlan* liar_{nullptr};
  Rng byz_rng_{0};
  ClockTime byz_last_truth_{};

  // Leader-only state.
  std::optional<IncrementalSynchronizer> synchronizer_;
  std::optional<LinkStats> stats_;  // every report folded so far
  std::vector<std::size_t> report_count_;  // indexed by epoch, 1-based
  std::vector<std::vector<ReportedExtremes>> pending_;  // by epoch, 1-based
  std::size_t computed_through_{0};
};

}  // namespace

AutomatonFactory make_sync_agents(const SystemModel* model,
                                  SyncAgentParams params,
                                  LiveResults* results) {
  if (model == nullptr || results == nullptr)
    throw Error("make_sync_agents: model and results must be non-null");
  require_extreme_sufficient(*model, "make_sync_agents");
  if (params.epochs == 0)
    throw Error("make_sync_agents: at least one epoch required");
  if (params.leader >= model->processor_count())
    throw Error("make_sync_agents: leader id out of range");
  if (params.spacing <= Duration{0.0} || params.period <= Duration{0.0})
    throw Error("make_sync_agents: spacing and period must be positive");
  if (params.grace < Duration{0.0})
    throw Error("make_sync_agents: grace must be non-negative");
  if (params.report_at.sec <=
      params.warmup.sec +
          static_cast<double>(params.rounds) * params.spacing.sec)
    throw Error(
        "make_sync_agents: report_at must come after the probe phase");
  if (params.period.sec <=
      static_cast<double>(params.rounds + 1) * params.spacing.sec)
    throw Error(
        "make_sync_agents: period too short for the per-epoch probe phase");
  if (results->agent_count() != model->processor_count() ||
      results->epochs().size() != params.epochs)
    throw Error("make_sync_agents: results sized for a different run");
  return [model, params, results](ProcessorId self) {
    return std::make_unique<SyncAgentAutomaton>(self, model, params,
                                                results);
  };
}

}  // namespace cs
