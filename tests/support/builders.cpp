#include "support/builders.hpp"

#include <algorithm>
#include <utility>

namespace cs::test {

SystemModel bounded_model(Topology topo, double lb, double ub) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bounds(a, b, lb, ub));
  return m;
}

SystemModel lower_bound_model(Topology topo, double lb) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_lower_bound_only(a, b, lb));
  return m;
}

SystemModel bias_model(Topology topo, double bias) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bias(a, b, bias));
  return m;
}

SystemModel bounded_bias_model(Topology topo, double lb, double ub,
                               double bias) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links) {
    std::vector<std::unique_ptr<LinkConstraint>> parts;
    parts.push_back(make_bounds(a, b, lb, ub));
    parts.push_back(make_bias(a, b, bias));
    m.set_constraint(make_composite(a, b, std::move(parts)));
  }
  return m;
}

SimResult run_ping_pong(const SystemModel& model, std::uint64_t seed,
                        double max_skew, std::size_t rounds) {
  Rng rng(seed);
  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), max_skew, rng);
  opts.seed = seed;
  PingPongParams params;
  params.warmup = Duration{max_skew + 0.1};
  params.rounds = rounds;
  return simulate(model, make_ping_pong(params), opts);
}

Execution two_node_execution(double s0, double s1,
                             const std::vector<double>& delays_01,
                             const std::vector<double>& delays_10) {
  // Send clock times spaced far enough apart that ordering is trivial, and
  // with a base offset large enough that every receive clock is positive.
  const double base = 10.0 + std::max(s0, s1);
  const double spacing = 1.0;

  struct Pending {
    ProcessorId pid;
    double clock;
    ViewEvent ev;
  };
  std::vector<Pending> events;
  MessageId next_id = 1;

  auto emit = [&](ProcessorId from, ProcessorId to, double send_clock,
                  double delay, double s_from, double s_to) {
    const MessageId id = next_id++;
    ViewEvent send;
    send.kind = EventKind::kSend;
    send.when = ClockTime{send_clock};
    send.msg = id;
    send.peer = to;
    events.push_back({from, send_clock, send});

    const double recv_real = s_from + send_clock + delay;
    const double recv_clock = recv_real - s_to;
    ViewEvent recv;
    recv.kind = EventKind::kReceive;
    recv.when = ClockTime{recv_clock};
    recv.msg = id;
    recv.peer = from;
    events.push_back({to, recv_clock, recv});
  };

  for (std::size_t i = 0; i < delays_01.size(); ++i)
    emit(0, 1, base + spacing * static_cast<double>(i), delays_01[i], s0, s1);
  for (std::size_t i = 0; i < delays_10.size(); ++i)
    emit(1, 0, base + spacing * static_cast<double>(i), delays_10[i], s1, s0);

  std::stable_sort(events.begin(), events.end(),
                   [](const Pending& x, const Pending& y) {
                     return x.clock < y.clock;
                   });

  std::vector<History> histories;
  histories.emplace_back(0, RealTime{s0});
  histories.emplace_back(1, RealTime{s1});
  for (const Pending& p : events) histories[p.pid].append(p.ev);
  return Execution(std::move(histories));
}

double cycle_mean_of(const DistanceMatrix& ms,
                     const std::vector<NodeId>& cycle) {
  double total = 0.0;
  for (std::size_t i = 0; i < cycle.size(); ++i)
    total += ms.at(cycle[i], cycle[(i + 1) % cycle.size()]);
  return total / static_cast<double>(cycle.size());
}

}  // namespace cs::test
