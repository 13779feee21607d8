#include "graph/topology.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "common/error.hpp"

namespace cs {

bool Topology::connected() const {
  if (node_count <= 1) return true;
  const auto adj = adjacency();
  std::vector<bool> seen(node_count, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        ++visited;
        stack.push_back(w);
      }
    }
  }
  return visited == node_count;
}

std::vector<std::vector<NodeId>> Topology::adjacency() const {
  std::vector<std::vector<NodeId>> adj(node_count);
  for (auto [a, b] : links) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  return adj;
}

Topology make_line(std::size_t n) {
  Topology t{n, {}};
  for (std::size_t i = 0; i + 1 < n; ++i)
    t.links.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return t;
}

Topology make_ring(std::size_t n) {
  // Generator arguments come from command lines and spec grammars, so
  // they are checked in every build, not asserted.
  if (n < 3) fail("ring needs n >= 3, got n = " + std::to_string(n));
  Topology t = make_line(n);
  t.links.emplace_back(0, static_cast<NodeId>(n - 1));
  return t;
}

Topology make_circulant(std::size_t n, std::span<const std::size_t> strides) {
  if (n < 3) fail("circulant needs n >= 3, got n = " + std::to_string(n));
  for (std::size_t s : strides)
    if (s < 1 || s >= n)
      fail("circulant stride " + std::to_string(s) +
           " is outside [1, n) for n = " + std::to_string(n));
  Topology t{n, {}};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s : strides) {
      const auto a = static_cast<NodeId>(i);
      const auto b = static_cast<NodeId>((i + s) % n);
      const std::pair<NodeId, NodeId> e{std::min(a, b), std::max(a, b)};
      if (std::find(t.links.begin(), t.links.end(), e) == t.links.end())
        t.links.push_back(e);
    }
  }
  std::sort(t.links.begin(), t.links.end());
  return t;
}

Topology make_star(std::size_t n) {
  if (n < 2) fail("star needs n >= 2, got n = " + std::to_string(n));
  Topology t{n, {}};
  for (std::size_t i = 1; i < n; ++i)
    t.links.emplace_back(0, static_cast<NodeId>(i));
  return t;
}

Topology make_complete(std::size_t n) {
  Topology t{n, {}};
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      t.links.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
  return t;
}

Topology make_grid(std::size_t width, std::size_t height) {
  if (width < 1 || height < 1)
    fail("grid needs both sides >= 1, got " + std::to_string(width) + "x" +
         std::to_string(height));
  Topology t{width * height, {}};
  auto id = [width](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * width + x);
  };
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (x + 1 < width) t.links.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < height) t.links.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return t;
}

Topology make_random_tree(std::size_t n, Rng& rng) {
  Topology t{n, {}};
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.uniform_int(i));
    t.links.emplace_back(std::min<NodeId>(parent, static_cast<NodeId>(i)),
                         std::max<NodeId>(parent, static_cast<NodeId>(i)));
  }
  return t;
}

Topology make_connected_gnp(std::size_t n, double p, Rng& rng) {
  if (!(p >= 0.0 && p <= 1.0))
    fail("gnp needs 0 <= p <= 1, got p = " + std::to_string(p) +
         " for n = " + std::to_string(n));
  Topology t = make_random_tree(n, rng);
  std::set<std::pair<NodeId, NodeId>> have(t.links.begin(), t.links.end());
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::pair<NodeId, NodeId> e{static_cast<NodeId>(a),
                                        static_cast<NodeId>(b)};
      if (!have.contains(e) && rng.uniform01() < p) {
        have.insert(e);
        t.links.push_back(e);
      }
    }
  }
  return t;
}

Topology make_wan(std::size_t n, std::size_t hubs, Rng& rng) {
  if (hubs < 3 || hubs > n)
    fail("wan needs 3 <= hubs <= n, got " + std::to_string(hubs) +
         " hubs for n = " + std::to_string(n));
  Topology t = make_ring(hubs);
  t.node_count = n;
  for (std::size_t i = hubs; i < n; ++i) {
    const auto hub = static_cast<NodeId>(rng.uniform_int(hubs));
    t.links.emplace_back(hub, static_cast<NodeId>(i));
  }
  // A few stub-to-stub cross links for path diversity (~10% of stubs).
  std::set<std::pair<NodeId, NodeId>> have(t.links.begin(), t.links.end());
  const std::size_t extra = (n - hubs) / 10;
  for (std::size_t k = 0; k < extra; ++k) {
    const auto a = static_cast<NodeId>(hubs + rng.uniform_int(n - hubs));
    const auto b = static_cast<NodeId>(hubs + rng.uniform_int(n - hubs));
    if (a == b) continue;
    const std::pair<NodeId, NodeId> e{std::min(a, b), std::max(a, b)};
    if (have.insert(e).second) t.links.push_back(e);
  }
  return t;
}

Topology make_named(const std::string& name, std::size_t n, Rng& rng) {
  if (name == "line") return make_line(n);
  if (name == "ring") return make_ring(n);
  if (name == "star") return make_star(n);
  if (name == "complete") return make_complete(n);
  if (name == "grid") {
    // Nearest square grid not exceeding n nodes in width.
    std::size_t w = 1;
    while ((w + 1) * (w + 1) <= n) ++w;
    return make_grid(w, (n + w - 1) / w);
  }
  if (name == "circulant") {
    const std::size_t strides[] = {1, 2, 3};
    return make_circulant(n, strides);
  }
  if (name == "tree") return make_random_tree(n, rng);
  if (name == "gnp") return make_connected_gnp(n, 0.2, rng);
  if (name == "wan") return make_wan(n, std::max<std::size_t>(3, n / 4), rng);
  fail("unknown topology: " + name);
}

}  // namespace cs
