#include "delaymodel/assignment.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace cs {

SystemModel::SystemModel(Topology topo)
    : topo_(std::move(topo)), directions_(2 * topo_.link_count()) {
  const std::size_t n = topo_.node_count;
  constraints_.reserve(topo_.link_count());
  for (std::size_t i = 0; i < topo_.link_count(); ++i) {
    const auto [a, b] = topo_.links[i];
    const auto refuse = [&](const std::string& why) {
      throw InvalidAssumption("topology link " + std::to_string(a) + "-" +
                              std::to_string(b) + " " + why);
    };
    if (a == b) refuse("is a self-link");
    if (a >= n || b >= n)
      refuse("names a processor >= the node count " + std::to_string(n));
    const auto slot = static_cast<std::uint32_t>(2 * i);
    if (directions_.insert(direction_key(a, b), slot) != FlatIndex::kAbsent)
      refuse("is listed twice");
    directions_.insert(direction_key(b, a), slot + 1);
    constraints_.push_back(make_no_bounds(a, b));
  }
}

void SystemModel::set_constraint(std::unique_ptr<LinkConstraint> c) {
  const std::size_t d = direction(c->a(), c->b());
  if (d == kNoDirection)
    throw InvalidAssumption("constraint endpoints are not a topology link");
  std::unique_ptr<LinkConstraint>& slot = constraints_[d / 2];
  if (!slot->extreme_sufficient()) --series_links_;
  if (!c->extreme_sufficient()) ++series_links_;
  slot = std::move(c);
}

const LinkConstraint& SystemModel::constraint(ProcessorId a,
                                              ProcessorId b) const {
  const std::size_t d = direction(a, b);
  if (d == kNoDirection) throw InvalidAssumption("no such link");
  return *constraints_[d / 2];
}

LinkDelays SystemModel::link_delays(const Execution& exec, ProcessorId a,
                                    ProcessorId b) const {
  if (a > b) std::swap(a, b);
  LinkDelays out;
  for (const TracedMessage& t : trace_messages(exec)) {
    if (t.msg.from == a && t.msg.to == b)
      out.a_to_b.push_back(t.delay().sec);
    else if (t.msg.from == b && t.msg.to == a)
      out.b_to_a.push_back(t.delay().sec);
  }
  return out;
}

bool SystemModel::admissible(const Execution& exec) const {
  // Bucket timed delays per link once rather than re-scanning per link.
  std::vector<TimedLinkDelays> delays(topo_.link_count());
  for (const TracedMessage& t : trace_messages(exec)) {
    const std::size_t d = direction(t.msg.from, t.msg.to);
    if (d == kNoDirection)
      throw InvalidExecution("message sent between non-adjacent processors");
    TimedLinkDelays& link = delays[d / 2];
    (d % 2 == 0 ? link.a_to_b : link.b_to_a)
        .push_back(TimedObs{t.send_real.sec, t.delay().sec});
  }
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const TimedLinkDelays& d = delays[i];
    if (d.a_to_b.empty() && d.b_to_a.empty()) continue;
    if (!constraints_[i]->admits_timed(d)) return false;
  }
  return true;
}

}  // namespace cs
