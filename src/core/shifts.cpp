#include "core/shifts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "common/pool.hpp"
#include "core/precision.hpp"
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

/// One pass over the whole matrix: refuses a NaN anywhere (relaxations and
/// cycle-mean maxima all evaluate false on one, so it would poison the
/// result silently) and reports whether every off-diagonal entry is
/// finite, i.e. the instance is bounded.
bool bounded_or_refuse_nan(const DistanceMatrix& ms) {
  const std::size_t n = ms.size();
  bool nan = false, infinite = false;
  for (std::size_t p = 0; p < n; ++p) {
    const double* row = ms.data() + p * n;
    nan |= std::isnan(row[p]);
    for (const ColumnRange c : off_diagonal(p, n)) {
      std::size_t q = c.lo;
#if defined(__SSE2__)
      const __m128d inf = _mm_set1_pd(kInfDist);
      __m128d unordered = _mm_setzero_pd();
      __m128d infinity = _mm_setzero_pd();
      for (; q + 2 <= c.hi; q += 2) {
        const __m128d m = _mm_loadu_pd(row + q);
        unordered = _mm_or_pd(unordered, _mm_cmpunord_pd(m, m));
        infinity = _mm_or_pd(infinity, _mm_cmpeq_pd(m, inf));
      }
      nan |= _mm_movemask_pd(unordered) != 0;
      infinite |= _mm_movemask_pd(infinity) != 0;
#endif
      for (; q < c.hi; ++q) {
        nan |= std::isnan(row[q]);
        infinite |= row[q] == kInfDist;
      }
    }
  }
  if (nan) throw Error("compute_shifts: m̃s matrix carries NaN entries");
  return !infinite;
}

/// Thm 4.6 corrections within one component of k >= 2 members: distances
/// from `root` under w(i,j) = a_max − ms(i,j) over the row-major k x k
/// block `ms`.  One dense Dijkstra on the Johnson reweighting
/// w(i,j) + v_i − v_j >= 0, Howard's converged value vector v being the
/// potential: nodes settle in order of the reduced key dist − v, while the
/// distances themselves accumulate in w, so each is the float sum of w
/// along its shortest-path tree path.  O(k²).
///
/// A row relaxes two entries at a time: SSE2 minpd(c, d) is exactly the
/// select c < d ? c : d, and a settled lane keeps its distance through the
/// all-ones/zero `unsettled` mask (u itself is settled first, so the diagonal
/// never acts).  The next node is the first open j of least key: the
/// least key m comes from a lane-wise min, then the first j with key == m,
/// which is what the strict key < best scan picks (== treats -0 and +0
/// alike; settled and NaN keys never equal m).
std::span<double> shortest_path_corrections(const double* ms, std::size_t k,
                                            std::size_t root, double a_max,
                                            std::span<const double> v,
                                            EpochArena& arena) {
  std::span<double> dist = arena.alloc_fill<double>(k, kInfDist);
  std::span<double> key = arena.alloc<double>(k);
  std::span<std::uint64_t> unsettled =
      arena.alloc_fill<std::uint64_t>(k, ~0ull);
  dist[root] = 0.0;
  for (std::size_t u = root; u < k;) {
    unsettled[u] = 0;
    const double base = dist[u] + a_max;
    const double* row = ms + u * k;
    double least = kInfDist;
    std::size_t j = 0;
#if defined(__SSE2__)
    const __m128d b = _mm_set1_pd(base);
    const __m128d inf = _mm_set1_pd(kInfDist);
    __m128d acc = inf;
    for (; j + 2 <= k; j += 2) {
      const __m128d live = _mm_castsi128_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&unsettled[j])));
      const __m128d d = _mm_loadu_pd(&dist[j]);
      const __m128d relaxed =
          _mm_min_pd(_mm_sub_pd(b, _mm_loadu_pd(row + j)), d);
      const __m128d nd =
          _mm_or_pd(_mm_and_pd(live, relaxed), _mm_andnot_pd(live, d));
      _mm_storeu_pd(&dist[j], nd);
      const __m128d kj = _mm_or_pd(
          _mm_and_pd(live, _mm_sub_pd(nd, _mm_loadu_pd(&v[j]))),
          _mm_andnot_pd(live, inf));
      _mm_storeu_pd(&key[j], kj);
      acc = _mm_min_pd(kj, acc);  // kj < acc ? kj : acc
    }
    alignas(16) double lane[2];
    _mm_store_pd(lane, acc);
    least = lane[1] < lane[0] ? lane[1] : lane[0];
#endif
    for (; j < k; ++j) {
      if (unsettled[j] == 0) {
        key[j] = kInfDist;
        continue;
      }
      const double cand = base - row[j];
      if (cand < dist[j]) dist[j] = cand;
      key[j] = dist[j] - v[j];
      if (key[j] < least) least = key[j];
    }
    u = k;
    if (least < kInfDist)
      for (j = 0; j < k; ++j)
        if (key[j] == least) {
          u = j;
          break;
        }
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
/// is right and x optimal.  The negated comparisons catch NaN.  The upper
/// half takes each row's maximum from row_skew; a row that fails (or holds
/// a NaN term or a +inf entry) is rescanned term by term for the first
/// failing pair, so the verdict and the message are the per-term loop's.
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
    const RowSkew r = row_skew(row, x.data(), i, k);
    if (r.max <= bound && !r.unordered && !r.infinite) continue;
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

/// Solves one finiteness component: Howard over its k x k m̃s block, then
/// the Dijkstra corrections on its potential.  Writes only this component's
/// slices of `res` (disjoint across components), so components may be
/// solved concurrently with byte-identical output.  `bounded` says the
/// component is the whole matrix with every off-diagonal entry finite.
void solve_component(const DistanceMatrix& ms, bool bounded,
                     const ShiftsOptions& options,
                     const std::vector<NodeId>& members, std::size_t c,
                     ShiftsResult& res, EpochArena& arena) {
  const std::size_t n = ms.size();
  const std::size_t k = members.size();
  if (k == 1) {
    res.corrections[members[0]] = 0.0;
    return;
  }
  // A bounded instance's block is the matrix itself: the kernels read its
  // rows in place and never its diagonal.  Otherwise the m̃s entries between
  // component members are all finite (strong connectivity of the finite
  // graph + the matrix being a shortest-path closure); compact them into a
  // dense block so the kernels run off flat rows.
  const double* w = ms.data();
  if (!bounded) {
    std::span<double> block = arena.alloc<double>(k * k);
    for (std::size_t i = 0; i < k; ++i) {
      double* wi = block.data() + i * k;
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
    w = block.data();
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
  HowardDenseResult hr;
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.cycle_mean_seconds");
    hr = max_cycle_mean_howard_dense(w, k, warm_local, policy_local, arena,
                                     options.metrics);
  }
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

  auto timer = Metrics::scoped(options.metrics, "stage.corrections_seconds");
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
      shortest_path_corrections(w, k, root, a_max, hr.value, arena);
  PolicyCycle theta = heaviest_policy_cycle(w, k, policy_local, members, arena);
  check_certificate(w, k, x, a_max, shifts_epsilon(a_max), members, theta);
  for (std::size_t i = 0; i < k; ++i) res.corrections[members[i]] = x[i];
  // A bounded instance is one component, so only it writes θ.
  if (bounded)
    res.critical_cycle = std::move(theta.nodes);
}

}  // namespace

ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options) {
  const std::size_t n = ms.size();
  if (n == 0) throw Error("compute_shifts: empty instance");
  if (options.root >= n) throw Error("compute_shifts: root out of range");
  Metrics* metrics = options.metrics;
  auto timer = Metrics::scoped(metrics, "stage.shifts_seconds");
  const bool bounded = bounded_or_refuse_nan(ms);

  ShiftsResult res;
  res.corrections.assign(n, 0.0);

  if (bounded) {
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

  if (options.threads != 1 && groups.size() > 1) {
    // Components are independent: disjoint result slices, private arenas,
    // a thread-safe metrics sink — byte-identical for any worker count.
    PoolOptions pool;
    pool.threads = options.threads;
    run_indexed(
        groups.size(),
        [&](std::size_t c) {
          EpochArena worker_arena;
          solve_component(ms, bounded, options, groups[c], c, res,
                          worker_arena);
        },
        pool);
  } else {
    EpochArena local;
    EpochArena& arena = options.arena != nullptr ? *options.arena : local;
    if (options.arena != nullptr) options.arena->reset();
    for (std::size_t c = 0; c < groups.size(); ++c)
      solve_component(ms, bounded, options, groups[c], c, res, arena);
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
