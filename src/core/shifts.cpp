#include "core/shifts.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/pool.hpp"
#include "graph/arena.hpp"

namespace cs {
namespace {

/// Builds the digraph of finite m̃s entries (off-diagonal).
Digraph finite_ms_graph(const DistanceMatrix& ms) {
  const std::size_t n = ms.size();
  Digraph g(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (p != q && ms.at(p, q) != kInfDist)
        g.add_edge(static_cast<NodeId>(p), static_cast<NodeId>(q),
                   ms.at(p, q));
  return g;
}

/// Thm 4.6 corrections within one component of k >= 2 members: distances
/// from `root` under w(i,j) = a_max − ms(i,j) over the compacted block
/// `ms` (row-major k x k).  One dense Dijkstra on the Johnson reweighting
/// w(i,j) + v_i − v_j >= 0, Howard's converged value vector v being the
/// potential: nodes settle in order of the reduced key dist − v, while the
/// distances themselves accumulate in w, so each is the float sum of w
/// along its shortest-path tree path.  O(k²).
std::span<double> shortest_path_corrections(const double* ms, std::size_t k,
                                            std::size_t root, double a_max,
                                            std::span<const double> v,
                                            EpochArena& arena) {
  std::span<double> dist = arena.alloc_fill<double>(k, kInfDist);
  std::span<std::uint8_t> settled = arena.alloc_fill<std::uint8_t>(k, 0);
  dist[root] = 0.0;
  for (std::size_t u = root; u < k;) {
    settled[u] = 1;
    const double du = dist[u];
    const double* row = ms + u * k;
    std::size_t next = k;
    double next_key = kInfDist;
    for (std::size_t j = 0; j < k; ++j) {
      if (settled[j] != 0) continue;
      const double cand = du + a_max - row[j];
      if (cand < dist[j]) dist[j] = cand;
      const double key = dist[j] - v[j];
      if (key < next_key) {
        next_key = key;
        next = j;
      }
    }
    u = next;
  }
  return dist;
}

/// A cycle of Howard's converged policy, as processor ids in policy order,
/// and its mean m̃s weight.
struct PolicyCycle {
  std::vector<NodeId> nodes;
  double mean{0.0};
};

/// The policy cycle of largest mean (the first on a tie), by one walk of the
/// functional graph: walks start at 0, 1, ... and stop at the first node
/// already seen; a walk that meets itself has entered a new cycle at that
/// node.  Each cycle is summed from that entry node on, in the order
/// Howard's value determination sums it, so the best mean equals Howard's
/// reported mean bit for bit.  O(k).
PolicyCycle heaviest_policy_cycle(const double* ms, std::size_t k,
                                  std::span<const NodeId> policy,
                                  const std::vector<NodeId>& members,
                                  EpochArena& arena) {
  std::span<std::uint32_t> walk = arena.alloc_fill<std::uint32_t>(k, 0);
  std::size_t head = 0, length = 0;
  double best = 0.0;
  for (std::size_t start = 0; start < k; ++start) {
    const auto stamp = static_cast<std::uint32_t>(start + 1);
    std::size_t u = start;
    while (walk[u] == 0) {
      walk[u] = stamp;
      u = policy[u];
    }
    if (walk[u] != stamp) continue;  // joined an earlier walk
    double total = 0.0;
    std::size_t m = 0;
    std::size_t x = u;
    do {
      total += ms[x * k + policy[x]];
      ++m;
      x = policy[x];
    } while (x != u);
    const double mean = total / static_cast<double>(m);
    if (length == 0 || mean > best) {
      head = u;
      length = m;
      best = mean;
    }
  }
  PolicyCycle theta{std::vector<NodeId>(length), best};
  for (std::size_t i = 0, u = head; i < length; ++i, u = policy[u])
    theta.nodes[i] = members[u];
  return theta;
}

/// Both halves of the certificate for one component, with critical cycle θ
/// and corrections x.  Upper: ρ̄(x) = max m̃s(i,j) − x_i + x_j <= a_max + ε.
/// Lower: θ's mean >= a_max − ε, which holds for every x because x cancels
/// around a cycle.  Thm 4.4 gives ρ̄(x) >= A^max >= θ's mean, so passing
/// certifies |a_max − A^max| <= ε and ρ̄(x) <= A^max + 2ε: the cycle mean
/// is right and x optimal.  The negated comparisons catch NaN.
void check_certificate(const double* ms, std::size_t k,
                       std::span<const double> x, double a_max,
                       double epsilon, const std::vector<NodeId>& members,
                       const PolicyCycle& theta) {
  if (!(theta.mean >= a_max - epsilon)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "SHIFTS: critical cycle certificate failed: the mean "
        << theta.mean << " of the cycle";
    for (const NodeId p : theta.nodes) msg << " p" << p;
    msg << " falls below Ã^max = " << a_max << " by more than the float "
        << "tolerance " << epsilon << "; the cycle mean is wrong";
    throw Error(msg.str());
  }
  const double bound = a_max + epsilon;
  for (std::size_t i = 0; i < k; ++i) {
    const double* row = ms + i * k;
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const double skew = row[j] - x[i] + x[j];
      if (!(skew <= bound)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "SHIFTS: Thm 4.6 certificate failed: m̃s(" << members[i]
            << ", " << members[j] << ") - x_p + x_q = " << skew
            << " exceeds Ã^max = " << a_max << " by more than the float "
            << "tolerance " << epsilon
            << "; m̃s matrix is inconsistent";
        throw Error(msg.str());
      }
    }
  }
}

/// Local index of `want` within the ascending member list of component `c`,
/// or kNoPolicyEdge when `want` lives elsewhere — the warm-policy mapping
/// the per-component local[] array used to provide.
NodeId warm_local_index(const std::vector<NodeId>& members,
                        const SccResult& components, std::size_t c,
                        NodeId want, std::size_t n) {
  if (want == kNoPolicyEdge || want >= n) return kNoPolicyEdge;
  if (components.component[want] != c) return kNoPolicyEdge;
  const auto it = std::lower_bound(members.begin(), members.end(), want);
  return static_cast<NodeId>(it - members.begin());
}

/// Solves one finiteness component: Howard over the compacted k x k m̃s
/// block, then the Dijkstra corrections on its potential.  Writes only this
/// component's slices of `res` (disjoint across components), so components
/// may be solved concurrently with byte-identical output.
void solve_component(const DistanceMatrix& ms, const ShiftsOptions& options,
                     const std::vector<NodeId>& members, std::size_t c,
                     ShiftsResult& res, EpochArena& arena) {
  const std::size_t n = ms.size();
  const std::size_t k = members.size();
  if (k == 1) {
    res.corrections[members[0]] = 0.0;
    return;
  }
  // The m̃s entries between component members are all finite (strong
  // connectivity of the finite graph + the matrix being a shortest-path
  // closure); compact them into a dense block so the kernels run off flat
  // rows.
  std::span<double> w = arena.alloc<double>(k * k);
  for (std::size_t i = 0; i < k; ++i) {
    double* wi = w.data() + i * k;
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) {
        wi[j] = 0.0;
        continue;
      }
      const double ms_ij = ms.at(members[i], members[j]);
      if (ms_ij == kInfDist)
        throw Error(
            "compute_shifts: m̃s matrix is not a shortest-path "
            "closure (finite component with infinite entry)");
      wi[j] = ms_ij;
    }
  }
  // Warm policy mapped into the component's local indices; entries
  // pointing outside this component fall back to greedy.
  std::span<NodeId> warm_local;
  if (options.warm_policy != nullptr && options.warm_policy->size() == n) {
    warm_local = arena.alloc<NodeId>(k);
    for (std::size_t i = 0; i < k; ++i)
      warm_local[i] = warm_local_index(
          members, res.components, c, (*options.warm_policy)[members[i]], n);
  }
  std::span<NodeId> policy_local = arena.alloc<NodeId>(k);
  const HowardDenseResult hr = max_cycle_mean_howard_dense(
      w.data(), k, warm_local, policy_local, arena, options.metrics);
  // The kernel has already counted the exit in metrics; an unconverged
  // mean may undershoot and its values are no potential, so it never
  // reaches the corrections.
  if (!hr.converged)
    throw Error(
        "compute_shifts: Howard iteration exited on its backstop "
        "without converging");
  const double a_max = hr.mean;
  res.component_a_max[c] = a_max;
  for (std::size_t i = 0; i < k; ++i)
    res.policy[members[i]] = members[policy_local[i]];

  // Per-component root: the global root if it lives here, else the
  // smallest member (gauge choice only).
  const std::size_t root =
      (res.components.component[options.root] == c)
          ? static_cast<std::size_t>(
                std::lower_bound(members.begin(), members.end(),
                                 options.root) -
                members.begin())
          : 0;
  const std::span<const double> x =
      shortest_path_corrections(w.data(), k, root, a_max, hr.value, arena);
  PolicyCycle theta =
      heaviest_policy_cycle(w.data(), k, policy_local, members, arena);
  check_certificate(w.data(), k, x, a_max, shifts_epsilon(a_max), members,
                    theta);
  for (std::size_t i = 0; i < k; ++i) res.corrections[members[i]] = x[i];
  // A bounded instance is one component, so only it writes θ.
  if (res.components.component_count == 1)
    res.critical_cycle = std::move(theta.nodes);
}

}  // namespace

ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options) {
  const std::size_t n = ms.size();
  if (n == 0) throw Error("compute_shifts: empty instance");
  if (options.root >= n) throw Error("compute_shifts: root out of range");
  // NaN entries poison every downstream comparison silently (relaxations
  // and cycle-mean maxima all evaluate false), so reject them up front.
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (std::isnan(ms.at(p, q)))
        throw Error("compute_shifts: m̃s matrix carries NaN entries");
  Metrics* metrics = options.metrics;
  auto timer = Metrics::scoped(metrics, "stage.shifts_seconds");

  ShiftsResult res;
  res.corrections.assign(n, 0.0);

  bool all_finite = true;
  for (std::size_t p = 0; p < n && all_finite; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (p != q && ms.at(p, q) == kInfDist) {
        all_finite = false;
        break;
      }
  if (all_finite) {
    // Bounded instance: one finiteness component holding every processor.
    // Skipping the graph build + Tarjan here keeps the per-epoch hot path
    // of the incremental pipeline O(n^2) outside the cycle mean itself.
    res.components.component.assign(n, 0);
    res.components.component_count = 1;
  } else {
    res.components = strongly_connected_components(finite_ms_graph(ms));
  }
  const auto groups = res.components.members();
  res.component_a_max.assign(groups.size(), 0.0);
  res.policy.assign(n, kNoPolicyEdge);

  const bool bounded = groups.size() == 1;

  if (options.threads != 1 && groups.size() > 1) {
    // Components are independent: disjoint result slices, private arenas,
    // a thread-safe metrics sink — byte-identical for any worker count.
    PoolOptions pool;
    pool.threads = options.threads;
    run_indexed(
        groups.size(),
        [&](std::size_t c) {
          EpochArena worker_arena;
          solve_component(ms, options, groups[c], c, res, worker_arena);
        },
        pool);
  } else {
    EpochArena local;
    EpochArena& arena = options.arena != nullptr ? *options.arena : local;
    if (options.arena != nullptr) options.arena->reset();
    for (std::size_t c = 0; c < groups.size(); ++c)
      solve_component(ms, options, groups[c], c, res, arena);
  }

  if (bounded) {
    res.a_max = ExtReal{res.component_a_max[0]};
  } else {
    res.a_max = ExtReal::infinity();
  }
  metrics_increment(metrics, "shifts.runs");
  return res;
}

ShiftsResult compute_shifts(const DistanceMatrix& ms, NodeId root) {
  ShiftsOptions options;
  options.root = root;
  return compute_shifts(ms, options);
}

}  // namespace cs
