#include "core/robust.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace cs {
namespace {

std::uint64_t dir_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

double median_of(std::vector<double> v) {
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One direction's MAD-gated copy appended to `out`.
void trim_direction(ProcessorId p, ProcessorId q,
                    std::span<const TimedObs> obs, double gate,
                    LinkTraffic& out, std::size_t& dropped) {
  if (obs.size() < 3 || gate <= 0.0) {
    for (const TimedObs& o : obs) out.add(p, q, o);
    return;
  }
  std::vector<double> delays;
  delays.reserve(obs.size());
  for (const TimedObs& o : obs) delays.push_back(o.delay);
  const double med = median_of(delays);
  std::vector<double> dev;
  dev.reserve(delays.size());
  for (double d : delays) dev.push_back(std::abs(d - med));
  const double mad = median_of(std::move(dev));
  if (mad == 0.0) {  // degenerate spread: no gate, keep everything
    for (const TimedObs& o : obs) out.add(p, q, o);
    return;
  }
  for (const TimedObs& o : obs) {
    if (std::abs(o.delay - med) <= gate * mad) {
      out.add(p, q, o);
    } else {
      ++dropped;
    }
  }
}

}  // namespace

LinkTraffic trimmed_traffic(const LinkTraffic& traffic,
                            const SystemModel& model, double trim_gate,
                            Metrics* metrics) {
  LinkTraffic out;
  std::size_t dropped = 0;
  for (const auto& [a, b] : model.topology().links) {
    trim_direction(a, b, traffic.direction(a, b), trim_gate, out, dropped);
    trim_direction(b, a, traffic.direction(b, a), trim_gate, out, dropped);
  }
  if (dropped != 0)
    metrics_increment(metrics, "robust.trimmed_observations", dropped);
  return out;
}

Digraph quorum_validated_mls(const Digraph& mls, const RobustOptions& options,
                             Metrics* metrics) {
  if (options.quorum == 0) return mls;
  const std::size_t n = mls.node_count();

  std::unordered_map<std::uint64_t, double> weight;
  weight.reserve(mls.edge_count() * 2);
  for (const Edge& e : mls.edges()) weight[dir_key(e.from, e.to)] = e.weight;

  // The pair graph H: u ~ v iff both directions carry an m̃ls edge — the
  // only pairs with a well-defined shift reading θ̃.
  std::vector<std::vector<NodeId>> adj(n);
  for (const Edge& e : mls.edges())
    if (e.from < e.to && weight.count(dir_key(e.to, e.from)) != 0) {
      adj[e.from].push_back(e.to);
      adj[e.to].push_back(e.from);
    }
  for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());

  const auto reading = [&](NodeId u, NodeId v) {
    return 0.5 * (weight.at(dir_key(u, v)) - weight.at(dir_key(v, u)));
  };

  // Disjoint-path search: repeated hop-limited BFS from p to q, banning the
  // direct hop and the interiors of already-found paths.  Deterministic:
  // sorted adjacency, FIFO order.
  std::vector<std::uint32_t> parent(n), depth(n);
  std::vector<std::uint8_t> banned(n), seen(n);
  const auto find_path = [&](NodeId p, NodeId q,
                             std::vector<NodeId>& path) -> bool {
    std::fill(seen.begin(), seen.end(), std::uint8_t{0});
    std::deque<NodeId> frontier{p};
    seen[p] = 1;
    depth[p] = 0;
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      if (depth[u] >= kQuorumHops) continue;
      for (NodeId v : adj[u]) {
        if (seen[v] || banned[v]) continue;
        if (u == p && v == q) continue;  // the direct hop under test
        seen[v] = 1;
        parent[v] = u;
        depth[v] = depth[u] + 1;
        if (v == q) {
          path.clear();
          for (NodeId w = q; w != p; w = parent[w]) path.push_back(w);
          path.push_back(p);
          std::reverse(path.begin(), path.end());
          return true;
        }
        frontier.push_back(v);
      }
    }
    return false;
  };

  std::unordered_set<std::uint64_t> dropped_pairs;
  std::vector<NodeId> path;
  for (const Edge& e : mls.edges()) {
    if (e.from >= e.to) continue;
    const NodeId p = e.from, q = e.to;
    if (weight.count(dir_key(q, p)) == 0) continue;  // one-way: keep
    const double direct = reading(p, q);

    std::fill(banned.begin(), banned.end(), std::uint8_t{0});
    std::size_t found = 0, corroborated = 0;
    while (found < options.quorum && find_path(p, q, path)) {
      ++found;
      double telescoped = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        telescoped += reading(path[i], path[i + 1]);
      const double hops = static_cast<double>(path.size() - 1);
      if (std::abs(direct - telescoped) <=
          options.quorum_tolerance * (hops + 1.0))
        ++corroborated;
      for (std::size_t i = 1; i + 1 < path.size(); ++i)
        banned[path[i]] = 1;  // interiors consumed: routes stay disjoint
    }
    if (found == 0) continue;  // no alternative route: uncheckable, keep
    if (corroborated < found / 2 + 1)
      dropped_pairs.insert(dir_key(p, q));
  }

  if (dropped_pairs.empty()) return mls;
  Digraph out(n);
  std::size_t removed = 0;
  for (const Edge& e : mls.edges()) {
    const std::uint64_t pair = e.from < e.to ? dir_key(e.from, e.to)
                                             : dir_key(e.to, e.from);
    if (dropped_pairs.count(pair) != 0) {
      ++removed;
      continue;
    }
    out.add_edge(e.from, e.to, e.weight);
  }
  metrics_increment(metrics, "robust.quorum_dropped_edges", removed);
  return out;
}

}  // namespace cs
