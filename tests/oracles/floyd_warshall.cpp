#include "oracles/floyd_warshall.hpp"

#include <algorithm>

namespace cs {

std::optional<DistanceMatrix> floyd_warshall(const Digraph& g) {
  const std::size_t n = g.node_count();
  DistanceMatrix m(n);
  for (const Edge& e : g.edges())
    m.at(e.from, e.to) = std::min(m.at(e.from, e.to), e.weight);

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = m.at(i, k);
      if (dik == kInfDist) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double dkj = m.at(k, j);
        if (dkj == kInfDist) continue;
        m.at(i, j) = std::min(m.at(i, j), dik + dkj);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i)
    if (m.at(i, i) < 0.0) return std::nullopt;
  return m;
}

}  // namespace cs
