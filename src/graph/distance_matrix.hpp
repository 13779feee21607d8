// The m̃s matrix: all-pairs distances, as GLOBAL ESTIMATES (Theorem 5.5)
// produces them (graph/johnson.hpp, graph/incremental_apsp.hpp) and SHIFTS
// consumes them (core/shifts.hpp).
#pragma once

#include <array>
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

  /// The row-major storage: row i is data() + i * size().
  const double* data() const { return d_.data(); }

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

/// A half-open column range [lo, hi) of one matrix row.
struct ColumnRange {
  std::size_t lo, hi;
};

/// The columns of row p of an n-column matrix other than p itself, in
/// ascending order: a row scan over both ranges never touches the
/// diagonal, whatever the diagonal holds.
inline std::array<ColumnRange, 2> off_diagonal(std::size_t p, std::size_t n) {
  return {ColumnRange{0, p}, ColumnRange{p + 1, n}};
}

}  // namespace cs
