#include "core/degraded.hpp"

#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace cs {
namespace {

/// Two entries per topology link (a -> b, then b -> a);
/// `observations(d, p, q)` counts direction slot d, which is p -> q.  An
/// empty `link_down` marks no link down.
template <class Count>
LinkCoverage census(const SystemModel& model,
                    const std::vector<bool>& link_down, Count observations) {
  if (!link_down.empty() &&
      link_down.size() != model.topology().link_count())
    throw InvalidExecution(
        "link_coverage: need one down flag per topology link");
  LinkCoverage cov;
  cov.directions.reserve(model.direction_count());
  for (std::size_t i = 0; i < model.topology().link_count(); ++i) {
    const auto [a, b] = model.topology().links[i];
    const bool down = !link_down.empty() && link_down[i];
    for (const auto& [p, q] : {std::pair{a, b}, std::pair{b, a}}) {
      DirectedCoverage d;
      d.from = p;
      d.to = q;
      d.observations = observations(cov.directions.size(), p, q);
      d.absent = down;
      if (down) {
        ++cov.absent_directions;
      } else if (d.observations > 0) {
        ++cov.observed_directions;
      }
      cov.directions.push_back(d);
    }
  }
  cov.total_directions = cov.directions.size();
  return cov;
}

}  // namespace

LinkCoverage link_coverage(const SystemModel& model,
                           const LinkTraffic& traffic) {
  return link_coverage(model, traffic, std::vector<bool>{});
}

LinkCoverage link_coverage(const SystemModel& model,
                           const LinkTraffic& traffic,
                           const std::vector<bool>& link_down) {
  return census(model, link_down,
                [&](std::size_t, ProcessorId p, ProcessorId q) {
                  return traffic.direction(p, q).size();
                });
}

LinkCoverage link_coverage(const SystemModel& model, const LinkStats& stats) {
  if (!stats.laid_out_for(model))
    throw InvalidAssumption(
        "link_coverage: stats are laid out for another topology");
  return census(model, {}, [&](std::size_t d, ProcessorId, ProcessorId) {
    return stats.at(d).count;
  });
}

void MlsCarry::reset() {
  memory_.clear();
  node_count_ = 0;
  last_carried_ = 0;
}

Digraph MlsCarry::apply(const Digraph& fresh) {
  last_carried_ = 0;
  if (!options_.carry_forward) return fresh;
  if (fresh.node_count() != node_count_) {
    // Different instance shape: stale memory is meaningless.
    memory_.clear();
    node_count_ = fresh.node_count();
  }

  std::unordered_set<std::uint64_t> present;
  present.reserve(fresh.edge_count());
  for (const Edge& e : fresh.edges()) {
    present.insert(key(e.from, e.to));
    memory_[key(e.from, e.to)] = Remembered{e.weight, 0};
  }

  Digraph out(fresh.node_count());
  for (const Edge& e : fresh.edges()) out.add_edge(e.from, e.to, e.weight);

  for (auto it = memory_.begin(); it != memory_.end();) {
    if (present.contains(it->first)) {
      ++it;
      continue;
    }
    Remembered& rem = it->second;
    ++rem.age;
    if (rem.age > options_.max_carry_epochs) {
      it = memory_.erase(it);
      continue;
    }
    const NodeId from = static_cast<NodeId>(it->first >> 32);
    const NodeId to = static_cast<NodeId>(it->first & 0xffffffffu);
    out.add_edge(from, to,
                 rem.weight +
                     static_cast<double>(rem.age) * options_.widen_per_epoch);
    ++last_carried_;
    ++it;
  }
  metrics_increment(metrics_, "degraded.carried_edges", last_carried_);
  return out;
}

}  // namespace cs
