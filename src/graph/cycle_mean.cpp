#include "graph/cycle_mean.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "graph/arena.hpp"
#include "graph/distance_matrix.hpp"

namespace cs {
namespace {

constexpr double kTol = 1e-12;

/// Greedy initial successor of v: the first strict maximum of w[v][j] over
/// j != v, scanned j-ascending from `first` = (v == 0) ? 1 : 0, as the
/// edge-list oracle's out[v] scan behaves.  Taken in two steps that pick
/// the same j: the row maximum m two lanes at a time, seeded with
/// w[v][first] so a NaN there stays the answer (nothing compares above
/// it), then the first j != v equal to m (== treats -0 and +0 alike, as
/// the strict > does).  A NaN elsewhere never wins either way.
std::size_t greedy_successor(const double* wv, std::size_t v, std::size_t k) {
  const std::size_t first = (v == 0) ? 1 : 0;
  double m = wv[first];
  for (const ColumnRange r : off_diagonal(v, k)) {
    std::size_t j = r.lo;
#if defined(__SSE2__)
    __m128d acc = _mm_set1_pd(m);
    for (; j + 2 <= r.hi; j += 2)
      acc = _mm_max_pd(_mm_loadu_pd(wv + j), acc);  // x > acc ? x : acc
    alignas(16) double lane[2];
    _mm_store_pd(lane, acc);
    m = lane[1] > lane[0] ? lane[1] : lane[0];
#endif
    for (; j < r.hi; ++j) m = wv[j] > m ? wv[j] : m;
  }
  for (const ColumnRange r : off_diagonal(v, k))
    for (std::size_t j = r.lo; j < r.hi; ++j)
      if (wv[j] == m) return j;
  return first;  // m is NaN: w[v][first] was
}

/// Stage 2 over the successors j in [lo, hi) of an unfiltered row v, in
/// ascending j: candidate (w[v][j] − η_v) + value[j] is accepted when it
/// beats best + tol, and best rises.  Two lanes are compared against the
/// threshold of the pair's start; since the threshold only rises, a pair
/// whose lanes both miss it holds no accepted candidate, and a pair where
/// one beats it is replayed lane by lane with the scalar rule.  The
/// candidates are the same two IEEE operations either way (no FMA: the
/// build targets none), so the accepted j sequence is the scalar scan's.
bool improve_range(const double* wv, const double* value, double eta_v,
                   ColumnRange r, double& best, NodeId& succ) {
  bool moved = false;
  std::size_t j = r.lo;
#if defined(__SSE2__)
  const __m128d eta = _mm_set1_pd(eta_v);
  __m128d threshold = _mm_set1_pd(best + kTol);
  for (; j + 2 <= r.hi; j += 2) {
    const __m128d cand = _mm_add_pd(_mm_sub_pd(_mm_loadu_pd(wv + j), eta),
                                    _mm_loadu_pd(value + j));
    if (_mm_movemask_pd(_mm_cmpgt_pd(cand, threshold)) == 0) continue;
    alignas(16) double lane[2];
    _mm_store_pd(lane, cand);
    for (std::size_t l = 0; l < 2; ++l)
      if (lane[l] > best + kTol) {
        best = lane[l];
        succ = static_cast<NodeId>(j + l);
        moved = true;
      }
    threshold = _mm_set1_pd(best + kTol);
  }
#endif
  for (; j < r.hi; ++j) {
    const double cand = wv[j] - eta_v + value[j];
    if (cand > best + kTol) {
      best = cand;
      succ = static_cast<NodeId>(j);
      moved = true;
    }
  }
  return moved;
}

}  // namespace

HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics) {
  assert(k >= 2 && policy.size() == k);
  assert(warm.empty() || warm.size() == k);
  if (!warm.empty())
    metrics_increment(metrics, "cycle_mean.howard_warm_starts");

  // Initial policy: the warm seed where it names a valid successor in this
  // component, else the per-node heaviest out-arc scanned j-ascending —
  // the first strict maximum wins, exactly as the edge-list variant's
  // out[v] scan (built j-ascending) behaved.
  for (std::size_t v = 0; v < k; ++v) {
    if (!warm.empty() && warm[v] < k && warm[v] != v) {
      policy[v] = warm[v];
      continue;
    }
    policy[v] = static_cast<NodeId>(greedy_successor(w + v * k, v, k));
  }

  std::span<double> eta = arena.alloc_fill<double>(k, 0.0);
  std::span<double> value = arena.alloc_fill<double>(k, 0.0);
  std::span<std::uint8_t> state = arena.alloc<std::uint8_t>(k);
  std::vector<std::size_t> path;
  path.reserve(k);

  const auto arc_w = [&](std::size_t x) { return w[x * k + policy[x]]; };

  HowardDenseResult result;
  result.converged = false;
  const std::size_t max_iters = 20 * k + 100;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    // ---- Value determination over the functional policy graph ----
    for (std::size_t v = 0; v < k; ++v) state[v] = 0;
    for (std::size_t start = 0; start < k; ++start) {
      if (state[start] != 0) continue;
      path.clear();
      std::size_t u = start;
      while (state[u] == 0) {
        state[u] = 1;
        path.push_back(u);
        u = policy[u];
      }
      if (state[u] == 1) {
        std::size_t pos = path.size();
        while (pos > 0 && path[pos - 1] != u) --pos;
        --pos;  // path[pos] == u
        double total = 0.0;
        for (std::size_t i = pos; i < path.size(); ++i)
          total += arc_w(path[i]);
        const double mean = total / static_cast<double>(path.size() - pos);
        value[u] = 0.0;
        eta[u] = mean;
        for (std::size_t i = path.size(); i-- > pos + 1;) {
          const std::size_t x = path[i];
          eta[x] = mean;
          value[x] = arc_w(x) - mean + value[policy[x]];
          state[x] = 2;
        }
        state[u] = 2;
        for (std::size_t i = pos; i-- > 0;) {
          const std::size_t x = path[i];
          eta[x] = mean;
          value[x] = arc_w(x) - mean + value[policy[x]];
          state[x] = 2;
        }
      } else {
        for (std::size_t i = path.size(); i-- > 0;) {
          const std::size_t x = path[i];
          eta[x] = eta[policy[x]];
          value[x] = arc_w(x) - eta[x] + value[policy[x]];
          state[x] = 2;
        }
      }
    }

    // ---- Policy improvement (two-stage, multi-chain) ----
    // The extreme attractor means decide up front which scans can change
    // anything: a stage-1 scan only moves v if some eta exceeds
    // eta[policy[v]] + kTol, and the stage-2 eta filter only fires if some
    // eta falls below eta[v] - kTol.  Once every node reaches one attractor
    // (the common case past the first iterations) both are dead weight;
    // skipping them leaves every policy and value bit-identical.
    double eta_lo = eta[0], eta_hi = eta[0];
    for (std::size_t v = 1; v < k; ++v) {
      eta_lo = std::min(eta_lo, eta[v]);
      eta_hi = std::max(eta_hi, eta[v]);
    }
    bool improved = false;
    for (std::size_t v = 0; v < k; ++v) {
      const double* wv = w + v * k;
      if (eta_hi > eta[policy[v]] + kTol) {
        std::size_t best = policy[v];
        double best_eta = eta[best];
        for (std::size_t j = 0; j < k; ++j) {
          if (j == v) continue;
          if (eta[j] > best_eta + kTol) {
            best = j;
            best_eta = eta[j];
          }
        }
        if (best != policy[v]) {
          policy[v] = static_cast<NodeId>(best);
          improved = true;
          continue;
        }
      }
      double best_val = arc_w(v) - eta[v] + value[policy[v]];
      if (!(eta_lo < eta[v] - kTol)) {
        for (const ColumnRange r : off_diagonal(v, k))
          improved |= improve_range(wv, value.data(), eta[v], r, best_val,
                                    policy[v]);
        continue;
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (j == v) continue;
        if (eta[j] < eta[v] - kTol) continue;
        const double cand = wv[j] - eta[v] + value[j];
        if (cand > best_val + kTol) {
          best_val = cand;
          policy[v] = static_cast<NodeId>(j);
          improved = true;
        }
      }
    }
    if (!improved) {
      result.converged = true;
      break;
    }
  }

  double best = eta[0];
  for (std::size_t v = 1; v < k; ++v) best = std::max(best, eta[v]);
  result.mean = best;
  result.value = value;
  if (!result.converged)
    metrics_increment(metrics, "cycle_mean.howard_backstop_exits");
  metrics_observe(metrics, "cycle_mean.howard_iterations",
                  static_cast<double>(result.iterations));
  return result;
}

}  // namespace cs
