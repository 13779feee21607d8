#include "oracles/cycle_mean.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "oracles/bellman_ford.hpp"
#include "graph/scc.hpp"

namespace cs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Karp's minimum cycle mean on one strongly connected subgraph, given by
/// the member nodes (with at least one edge inside).  Uses local indices.
std::optional<double> karp_min_on_scc(const Digraph& g,
                                      const std::vector<NodeId>& members,
                                      const std::vector<std::size_t>& comp,
                                      std::size_t comp_id) {
  const std::size_t n = members.size();
  std::vector<std::size_t> local(g.node_count(),
                                 std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < n; ++i) local[members[i]] = i;

  // Edges internal to the SCC, in local indices.
  struct LEdge {
    std::size_t from, to;
    double w;
  };
  std::vector<LEdge> edges;
  for (const Edge& e : g.edges())
    if (comp[e.from] == comp_id && comp[e.to] == comp_id)
      edges.push_back({local[e.from], local[e.to], e.weight});
  if (edges.empty()) return std::nullopt;  // singleton without self-loop

  // D[k][v] = min weight of a walk with exactly k edges from the source
  // (node 0 of the SCC) to v; strong connectivity makes the choice of
  // source irrelevant to the final min-max.
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(n, kInf));
  d[0][0] = 0.0;
  for (std::size_t k = 1; k <= n; ++k)
    for (const LEdge& e : edges)
      if (d[k - 1][e.from] != kInf)
        d[k][e.to] = std::min(d[k][e.to], d[k - 1][e.from] + e.w);

  double best = kInf;
  for (std::size_t v = 0; v < n; ++v) {
    if (d[n][v] == kInf) continue;
    double worst = -kInf;
    for (std::size_t k = 0; k < n; ++k) {
      if (d[k][v] == kInf) continue;
      worst = std::max(worst, (d[n][v] - d[k][v]) /
                                  static_cast<double>(n - k));
    }
    if (worst != -kInf) best = std::min(best, worst);
  }
  if (best == kInf) return std::nullopt;
  return best;
}

bool graph_has_cycle(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  std::vector<std::size_t> sizes(scc.component_count, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) ++sizes[scc.component[v]];
  for (const Edge& e : g.edges()) {
    if (e.from == e.to) return true;  // self-loop
    if (scc.component[e.from] == scc.component[e.to] &&
        sizes[scc.component[e.from]] > 1)
      return true;
  }
  return false;
}

}  // namespace

std::optional<double> min_cycle_mean_karp(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  const auto groups = scc.members();
  std::optional<double> best;
  for (std::size_t c = 0; c < groups.size(); ++c) {
    const auto r = karp_min_on_scc(g, groups[c], scc.component, c);
    if (r && (!best || *r < *best)) best = r;
  }
  return best;
}

std::optional<double> max_cycle_mean_karp(const Digraph& g) {
  Digraph neg(g.node_count());
  for (const Edge& e : g.edges()) neg.add_edge(e.from, e.to, -e.weight);
  const auto r = min_cycle_mean_karp(neg);
  if (!r) return std::nullopt;
  return -*r;
}

std::optional<double> max_cycle_mean_bsearch(const Digraph& g,
                                             double tolerance) {
  assert(tolerance > 0.0);
  if (!graph_has_cycle(g)) return std::nullopt;

  double lo = kInf, hi = -kInf;
  for (const Edge& e : g.edges()) {
    lo = std::min(lo, e.weight);
    hi = std::max(hi, e.weight);
  }
  // Invariant: max mean in [lo, hi].  A cycle of mean > mu exists iff the
  // graph with weights (mu - w) has a negative cycle.
  auto exceeds = [&](double mu) {
    Digraph shifted(g.node_count());
    for (const Edge& e : g.edges())
      shifted.add_edge(e.from, e.to, mu - e.weight);
    return has_negative_cycle(shifted);
  };
  while (hi - lo > tolerance) {
    const double mid = lo + (hi - lo) / 2.0;
    if (exceeds(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo + (hi - lo) / 2.0;
}

namespace {

struct HowardSccResult {
  double mean{0.0};
  std::vector<std::size_t> policy;  // chosen edge index per local node
  std::size_t iterations{0};
  bool converged{true};
};

/// Howard's policy iteration on one SCC (local indices, internal edges).
/// Every node of a non-trivial SCC has an internal out-edge, so policies
/// are total.  `initial_policy` optionally seeds per-node edge choices
/// (entries of edges.size() mean "no seed, use greedy") — warm starts from
/// the previous epoch's optimal policy typically converge in one round.
HowardSccResult howard_on_scc(
    std::size_t n, const std::vector<Edge>& edges,
    const std::vector<std::vector<std::size_t>>& out,
    const std::vector<std::size_t>* initial_policy) {
  constexpr double kTol = 1e-12;
  // Initial policy: the seed where given, else per-node heaviest out-edge
  // (greedy).
  std::vector<std::size_t> policy(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (initial_policy != nullptr && (*initial_policy)[v] < edges.size()) {
      policy[v] = (*initial_policy)[v];
      continue;
    }
    std::size_t best = out[v].front();
    for (std::size_t e : out[v])
      if (edges[e].weight > edges[best].weight) best = e;
    policy[v] = best;
  }

  std::vector<double> eta(n, 0.0);   // cycle mean of v's attractor
  std::vector<double> value(n, 0.0);  // bias within the attractor's basin

  // Iteration bound is a float-robustness backstop; policy iteration
  // terminates far sooner on real inputs.  Exiting through it is reported
  // to the caller via `converged`, never silently absorbed.
  HowardSccResult result;
  result.converged = false;
  const std::size_t max_iters = 20 * n + 100;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    // ---- Value determination over the functional policy graph ----
    std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 on path, 2 done
    for (std::size_t start = 0; start < n; ++start) {
      if (state[start] != 0) continue;
      std::vector<std::size_t> path;
      std::size_t u = start;
      while (state[u] == 0) {
        state[u] = 1;
        path.push_back(u);
        u = edges[policy[u]].to;
      }
      if (state[u] == 1) {
        // Found a new policy cycle; locate it within `path`.
        std::size_t pos = path.size();
        while (pos > 0 && path[pos - 1] != u) --pos;
        --pos;  // path[pos] == u
        double total = 0.0;
        for (std::size_t i = pos; i < path.size(); ++i)
          total += edges[policy[path[i]]].weight;
        const double mean = total / static_cast<double>(path.size() - pos);
        // Values around the cycle: anchor the entry node at 0, then walk
        // the cycle backwards so v(x) = w(x, pi x) - mean + v(pi x).
        value[u] = 0.0;
        eta[u] = mean;
        for (std::size_t i = path.size(); i-- > pos + 1;) {
          const std::size_t x = path[i];
          eta[x] = mean;
          value[x] = edges[policy[x]].weight - mean +
                     value[edges[policy[x]].to];
          state[x] = 2;
        }
        state[u] = 2;
        // Prefix of the path (tree part feeding the cycle).
        for (std::size_t i = pos; i-- > 0;) {
          const std::size_t x = path[i];
          eta[x] = mean;
          value[x] = edges[policy[x]].weight - mean +
                     value[edges[policy[x]].to];
          state[x] = 2;
        }
      } else {
        // Path attaches to an already-valued region.
        for (std::size_t i = path.size(); i-- > 0;) {
          const std::size_t x = path[i];
          eta[x] = eta[edges[policy[x]].to];
          value[x] = edges[policy[x]].weight - eta[x] +
                     value[edges[policy[x]].to];
          state[x] = 2;
        }
      }
    }

    // ---- Policy improvement (two-stage, multi-chain) ----
    bool changed = false;
    for (std::size_t v = 0; v < n; ++v) {
      // Stage 1: reach an attractor with a larger mean.
      std::size_t best = policy[v];
      double best_eta = eta[edges[best].to];
      for (std::size_t e : out[v]) {
        if (eta[edges[e].to] > best_eta + kTol) {
          best = e;
          best_eta = eta[edges[e].to];
        }
      }
      if (best != policy[v]) {
        policy[v] = best;
        changed = true;
        continue;
      }
      // Stage 2: among equal-mean successors, improve the bias.
      double best_val =
          edges[policy[v]].weight - eta[v] + value[edges[policy[v]].to];
      for (std::size_t e : out[v]) {
        if (eta[edges[e].to] < eta[v] - kTol) continue;
        const double cand =
            edges[e].weight - eta[v] + value[edges[e].to];
        if (cand > best_val + kTol) {
          best_val = cand;
          policy[v] = e;
          changed = true;
        }
      }
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }

  double best = eta[0];
  for (double x : eta) best = std::max(best, x);
  result.mean = best;
  result.policy = std::move(policy);
  return result;
}

}  // namespace

HowardResult max_cycle_mean_howard_warm(
    const Digraph& g, const std::vector<NodeId>* warm_policy,
    Metrics* metrics) {
  if (warm_policy != nullptr && warm_policy->size() != g.node_count())
    warm_policy = nullptr;
  if (warm_policy != nullptr)
    metrics_increment(metrics, "cycle_mean.howard_warm_starts");

  HowardResult result;
  result.policy.assign(g.node_count(), kNoPolicyEdge);

  const SccResult scc = strongly_connected_components(g);
  const auto groups = scc.members();
  for (std::size_t c = 0; c < groups.size(); ++c) {
    const auto& members = groups[c];
    std::vector<std::size_t> local(g.node_count(),
                                   std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < members.size(); ++i) local[members[i]] = i;
    std::vector<Edge> edges;
    std::vector<std::vector<std::size_t>> out(members.size());
    for (const Edge& e : g.edges()) {
      if (scc.component[e.from] == c && scc.component[e.to] == c) {
        out[local[e.from]].push_back(edges.size());
        edges.push_back(Edge{static_cast<NodeId>(local[e.from]),
                             static_cast<NodeId>(local[e.to]), e.weight});
      }
    }
    if (edges.empty()) continue;  // singleton without self-loop: no cycle

    // Map the warm successor of each member to an internal edge: the
    // heaviest parallel edge towards that successor, if it still exists in
    // this SCC.  Everything else falls back to greedy inside howard_on_scc.
    std::vector<std::size_t> seed;
    if (warm_policy != nullptr) {
      seed.assign(members.size(), edges.size());
      for (std::size_t i = 0; i < members.size(); ++i) {
        const NodeId want = (*warm_policy)[members[i]];
        if (want == kNoPolicyEdge || want >= g.node_count()) continue;
        if (scc.component[want] != c) continue;
        const std::size_t want_local = local[want];
        for (std::size_t e : out[i]) {
          if (edges[e].to != want_local) continue;
          if (seed[i] == edges.size() ||
              edges[e].weight > edges[seed[i]].weight)
            seed[i] = e;
        }
      }
    }

    const HowardSccResult r = howard_on_scc(
        members.size(), edges, out, seed.empty() ? nullptr : &seed);
    result.iterations += r.iterations;
    if (!r.converged) {
      result.converged = false;
      metrics_increment(metrics, "cycle_mean.howard_backstop_exits");
    }
    for (std::size_t i = 0; i < members.size(); ++i)
      result.policy[members[i]] = members[edges[r.policy[i]].to];
    if (!result.mean || r.mean > *result.mean) result.mean = r.mean;
  }
  metrics_observe(metrics, "cycle_mean.howard_iterations",
                  static_cast<double>(result.iterations));
  return result;
}

std::optional<double> max_cycle_mean_howard(const Digraph& g) {
  const HowardResult r = max_cycle_mean_howard_warm(g);
  if (!r.converged)
    throw Error(
        "max_cycle_mean_howard: policy iteration exhausted its backstop "
        "without converging; the mean would be unreliable");
  return r.mean;
}

std::optional<double> max_cycle_mean_brute(const Digraph& g) {
  const std::size_t n = g.node_count();
  assert(n <= 16 && "brute-force oracle is exponential");
  std::optional<double> best;

  // DFS for simple cycles whose minimum node is the start node (each simple
  // cycle is enumerated exactly once).
  std::vector<bool> on_path(n, false);
  struct Frame {
    NodeId v;
    std::size_t pos;
    double weight;
    std::size_t len;
  };
  for (NodeId start = 0; start < n; ++start) {
    std::vector<Frame> stack;
    stack.push_back({start, 0, 0.0, 0});
    on_path[start] = true;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto out = g.out_edges(f.v);
      if (f.pos < out.size()) {
        const Edge& e = g.edge(out[f.pos++]);
        if (e.to == start) {
          const double mean =
              (f.weight + e.weight) / static_cast<double>(f.len + 1);
          if (!best || mean > *best) best = mean;
        } else if (e.to > start && !on_path[e.to]) {
          on_path[e.to] = true;
          stack.push_back({e.to, 0, f.weight + e.weight, f.len + 1});
        }
      } else {
        on_path[f.v] = false;
        stack.pop_back();
      }
    }
  }
  return best;
}

}  // namespace cs
