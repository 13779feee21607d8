#include "oracles/delta_apsp.hpp"

namespace cs {

void reference_lower_edge(DistanceMatrix& d, NodeId from, NodeId to,
                          double w) {
  const std::size_t n = d.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double head = d.at(i, from);
    if (head == kInfDist) continue;
    const double via = head + w;
    for (std::size_t j = 0; j < n; ++j) {
      const double tail = d.at(to, j);
      if (tail == kInfDist) continue;
      if (via + tail < d.at(i, j)) d.at(i, j) = via + tail;
    }
  }
}

}  // namespace cs
