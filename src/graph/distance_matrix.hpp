// The m̃s matrix: all-pairs distances, as GLOBAL ESTIMATES (Theorem 5.5)
// produces them (graph/johnson.hpp, graph/incremental_apsp.hpp) and SHIFTS
// consumes them (core/shifts.hpp).
#pragma once

#include <limits>
#include <vector>

#include "graph/digraph.hpp"

namespace cs {

/// Distance of an unreachable node; an m̃s entry no estimate bounds.
inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Row-major n*n distance matrix; +inf = unreachable; diagonal 0.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(std::size_t n)
      : n_(n), d_(n * n, kInfDist) {
    for (std::size_t i = 0; i < n; ++i) at(i, i) = 0.0;
  }

  std::size_t size() const { return n_; }
  double& at(std::size_t i, std::size_t j) { return d_[i * n_ + j]; }
  double at(std::size_t i, std::size_t j) const { return d_[i * n_ + j]; }

  /// Re-initializes to the n-node identity matrix (+inf off-diagonal),
  /// reusing the existing buffer when the size matches — the per-epoch
  /// rebuild path re-fills in place instead of reallocating.
  void reset(std::size_t n) {
    n_ = n;
    d_.assign(n * n, kInfDist);
    for (std::size_t i = 0; i < n; ++i) at(i, i) = 0.0;
  }

 private:
  std::size_t n_{0};
  std::vector<double> d_;
};

}  // namespace cs
