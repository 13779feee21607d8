#include "graph/cycle_mean.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "graph/arena.hpp"

namespace cs {

HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics) {
  assert(k >= 2 && policy.size() == k);
  assert(warm.empty() || warm.size() == k);
  constexpr double kTol = 1e-12;
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
    std::size_t best = (v == 0) ? 1 : 0;
    const double* wv = w + v * k;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == v) continue;
      if (wv[j] > wv[best]) best = j;
    }
    policy[v] = static_cast<NodeId>(best);
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
      const bool filter = eta_lo < eta[v] - kTol;
      double best_val = arc_w(v) - eta[v] + value[policy[v]];
      for (std::size_t j = 0; j < k; ++j) {
        if (j == v) continue;
        if (filter && eta[j] < eta[v] - kTol) continue;
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
