#include "delaymodel/link_stats.hpp"

#include "delaymodel/assignment.hpp"

namespace cs {

LinkStats::LinkStats(const SystemModel& model)
    : model_(&model), stats_(model.direction_count()) {}

bool LinkStats::laid_out_for(const SystemModel& model) const {
  return model_ == &model ||
         model_->topology().links == model.topology().links;
}

const DirectedStats& LinkStats::direction(ProcessorId p,
                                          ProcessorId q) const {
  static const DirectedStats kEmpty;
  const std::size_t d = model_->direction(p, q);
  return d == SystemModel::kNoDirection ? kEmpty : stats_[d];
}

void LinkStats::add(ProcessorId p, ProcessorId q, double delay) {
  const std::size_t d = model_->direction(p, q);
  if (d != SystemModel::kNoDirection) stats_[d].add(delay);
}

void LinkStats::add_stats(ProcessorId p, ProcessorId q,
                          const DirectedStats& s) {
  const std::size_t d = model_->direction(p, q);
  if (d == SystemModel::kNoDirection) return;
  DirectedStats& dst = stats_[d];
  dst.dmin = min(dst.dmin, s.dmin);
  dst.dmax = max(dst.dmax, s.dmax);
  dst.count += s.count;
}

LinkStats LinkStats::estimated_from_views(const SystemModel& model,
                                          std::span<const View> views,
                                          MatchPolicy policy,
                                          PairingStats* stats) {
  LinkStats s(model);
  for (const PairedMessage& m : pair_messages(views, policy, stats))
    s.add(m.from, m.to, m.estimated_delay().sec);
  return s;
}

LinkStats LinkStats::actual_from_execution(const SystemModel& model,
                                           const Execution& exec) {
  LinkStats s(model);
  for (const TracedMessage& t : trace_messages(exec))
    s.add(t.msg.from, t.msg.to, t.delay().sec);
  return s;
}

std::span<const TimedObs> LinkTraffic::direction(ProcessorId p,
                                                 ProcessorId q) const {
  const auto it = traffic_.find(key(p, q));
  if (it == traffic_.end()) return {};
  return it->second;
}

void LinkTraffic::add(ProcessorId p, ProcessorId q, TimedObs obs) {
  traffic_[key(p, q)].push_back(obs);
}

LinkTraffic LinkTraffic::estimated_from_views(std::span<const View> views,
                                              MatchPolicy policy,
                                              PairingStats* stats) {
  LinkTraffic t;
  for (const PairedMessage& m : pair_messages(views, policy, stats))
    t.add(m.from, m.to,
          TimedObs{m.send_clock.sec, m.estimated_delay().sec});
  return t;
}

LinkTraffic LinkTraffic::actual_from_execution(const Execution& exec) {
  LinkTraffic t;
  for (const TracedMessage& tm : trace_messages(exec))
    t.add(tm.msg.from, tm.msg.to,
          TimedObs{tm.send_real.sec, tm.delay().sec});
  return t;
}

}  // namespace cs
