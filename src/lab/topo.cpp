#include "lab/topo.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cs::lab {
namespace {

void add_link(std::set<std::pair<NodeId, NodeId>>& have,
              std::vector<std::pair<NodeId, NodeId>>& links, NodeId a,
              NodeId b) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  if (have.insert({a, b}).second) links.emplace_back(a, b);
}

}  // namespace

Topology make_toroid(std::span<const std::size_t> dims) {
  if (dims.empty()) fail("toroid needs at least one dimension");
  std::size_t n = 1;
  for (const std::size_t k : dims) {
    if (k == 0) fail("toroid dimensions must be >= 1");
    n *= k;
  }
  Topology t{n, {}};
  std::set<std::pair<NodeId, NodeId>> have;
  // Node id = mixed-radix encoding of its coordinates, first dimension
  // fastest: id = c0 + k0*(c1 + k1*(c2 + ...)).
  std::vector<std::size_t> coord(dims.size(), 0);
  for (std::size_t id = 0; id < n; ++id) {
    std::size_t stride = 1;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::size_t k = dims[d];
      if (k > 1) {
        const std::size_t next_c = (coord[d] + 1) % k;
        const std::size_t neighbor =
            id - coord[d] * stride + next_c * stride;
        add_link(have, t.links, static_cast<NodeId>(id),
                 static_cast<NodeId>(neighbor));
      }
      stride *= k;
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {  // increment coordinates
      if (++coord[d] < dims[d]) break;
      coord[d] = 0;
    }
  }
  return t;
}

Topology make_torus(std::size_t width, std::size_t height) {
  const std::size_t dims[] = {width, height};
  return make_toroid(dims);
}

Topology make_hypercube(std::size_t dim) {
  if (dim > 20) fail("hypercube dimension too large");
  const std::size_t n = std::size_t{1} << dim;
  Topology t{n, {}};
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t w = v ^ (std::size_t{1} << d);
      if (v < w)
        t.links.emplace_back(static_cast<NodeId>(v), static_cast<NodeId>(w));
    }
  return t;
}

Topology make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  if (m < 1) fail("barabasi-albert needs m >= 1");
  const std::size_t core = std::min(m + 1, n);
  Topology t{n, {}};
  std::set<std::pair<NodeId, NodeId>> have;
  for (std::size_t a = 0; a < core; ++a)
    for (std::size_t b = a + 1; b < core; ++b)
      add_link(have, t.links, static_cast<NodeId>(a), static_cast<NodeId>(b));
  // Classic endpoint-list sampling: a node's probability of being chosen is
  // proportional to how often it appears as a link endpoint (its degree).
  std::vector<NodeId> endpoints;
  for (const auto& [a, b] : t.links) {
    endpoints.push_back(a);
    endpoints.push_back(b);
  }
  for (std::size_t v = core; v < n; ++v) {
    std::set<NodeId> targets;
    while (targets.size() < std::min(m, v)) {
      targets.insert(endpoints.empty()
                         ? static_cast<NodeId>(rng.uniform_int(v))
                         : endpoints[rng.uniform_int(endpoints.size())]);
    }
    for (const NodeId u : targets) {
      add_link(have, t.links, static_cast<NodeId>(v), u);
      endpoints.push_back(static_cast<NodeId>(v));
      endpoints.push_back(u);
    }
  }
  return t;
}

Topology make_erdos_renyi(std::size_t n, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) fail("erdos-renyi probability must be in [0, 1]");
  return make_connected_gnp(n, p, rng);
}

Topology make_datacenter(std::size_t spines, std::size_t racks,
                         std::size_t hosts) {
  if (spines < 1 || racks < 1) fail("datacenter needs >= 1 spine and rack");
  Topology t{spines + racks + racks * hosts, {}};
  for (std::size_t r = 0; r < racks; ++r) {
    const auto tor = static_cast<NodeId>(spines + r);
    for (std::size_t s = 0; s < spines; ++s)
      t.links.emplace_back(static_cast<NodeId>(s), tor);
    for (std::size_t h = 0; h < hosts; ++h)
      t.links.emplace_back(
          tor, static_cast<NodeId>(spines + racks + r * hosts + h));
  }
  return t;
}

// ---- Spec grammar --------------------------------------------------------

namespace {

std::size_t parse_size(const std::string& token, const std::string& what) {
  const std::optional<std::uint64_t> v = text::parse_u64(token);
  if (!v) fail("topology spec: '" + token + "' is not a valid " + what);
  return static_cast<std::size_t>(*v);
}

std::vector<std::size_t> parse_dims(const std::string& token) {
  std::vector<std::size_t> dims;
  std::string part;
  std::istringstream is(token);
  while (std::getline(is, part, 'x'))
    dims.push_back(parse_size(part, "dimension"));
  if (dims.empty()) fail("topology spec: empty dimension list");
  return dims;
}

}  // namespace

std::string TopoSpec::describe() const {
  std::ostringstream os;
  os << family;
  if (family == "grid" || family == "torus" || family == "toroid") {
    os << ' ';
    for (std::size_t i = 0; i < dims.size(); ++i)
      os << (i > 0 ? "x" : "") << dims[i];
  } else if (family == "er") {
    os << ' ' << dims.at(0) << ' ' << p;
  } else {
    for (const std::size_t d : dims) os << ' ' << d;
  }
  return os.str();
}

std::size_t TopoSpec::node_count() const {
  if (family == "grid" || family == "torus" || family == "toroid")
    return std::accumulate(dims.begin(), dims.end(), std::size_t{1},
                           std::multiplies<>{});
  if (family == "hypercube") return std::size_t{1} << dims.at(0);
  if (family == "dc")
    return dims.at(0) + dims.at(1) + dims.at(1) * dims.at(2);
  return dims.at(0);
}

bool TopoSpec::randomized() const {
  return family == "er" || family == "ba" || family == "tree" ||
         family == "wan";
}

bool TopoSpec::odd_ary_toroid() const {
  if (family == "ring") return dims.at(0) % 2 == 1 && dims.at(0) >= 3;
  if (family != "torus" && family != "toroid") return false;
  return std::all_of(dims.begin(), dims.end(), [](std::size_t k) {
    return k >= 3 && k % 2 == 1;
  });
}

TopoSpec parse_topo_spec(const std::string& text) {
  std::istringstream is(text);
  TopoSpec spec;
  if (!(is >> spec.family)) fail("topology spec: empty");
  std::vector<std::string> params;
  std::string token;
  while (is >> token) params.push_back(token);

  const auto want = [&](std::size_t count, const char* usage) {
    if (params.size() != count)
      fail("topology spec '" + text + "': expected '" + spec.family + " " +
           usage + "'");
  };

  const std::string& f = spec.family;
  if (f == "line" || f == "ring" || f == "star" || f == "complete" ||
      f == "circulant" || f == "tree" || f == "wan") {
    want(1, "N");
    spec.dims = {parse_size(params[0], "node count")};
  } else if (f == "grid" || f == "torus") {
    want(1, "WxH");
    spec.dims = parse_dims(params[0]);
    if (spec.dims.size() != 2)
      fail("topology spec '" + text + "': " + f + " needs exactly WxH");
  } else if (f == "toroid") {
    want(1, "K1xK2x...");
    spec.dims = parse_dims(params[0]);
  } else if (f == "hypercube") {
    want(1, "D");
    spec.dims = {parse_size(params[0], "dimension")};
  } else if (f == "er") {
    want(2, "N P");
    spec.dims = {parse_size(params[0], "node count")};
    const std::optional<double> p = text::parse_number(params[1]);
    if (!p)
      fail("topology spec: '" + params[1] + "' is not a valid probability");
    spec.p = *p;
  } else if (f == "ba") {
    want(2, "N M");
    spec.dims = {parse_size(params[0], "node count"),
                 parse_size(params[1], "attachment count")};
  } else if (f == "dc") {
    want(3, "SPINES RACKS HOSTS");
    spec.dims = {parse_size(params[0], "spine count"),
                 parse_size(params[1], "rack count"),
                 parse_size(params[2], "host count")};
  } else {
    fail("unknown topology family: '" + f + "'");
  }
  return spec;
}

Topology make_topology(const TopoSpec& spec, Rng& rng) {
  const std::string& f = spec.family;
  if (f == "line") return make_line(spec.dims.at(0));
  if (f == "ring") return make_ring(spec.dims.at(0));
  if (f == "star") return make_star(spec.dims.at(0));
  if (f == "complete") return make_complete(spec.dims.at(0));
  if (f == "circulant") {
    static constexpr std::size_t kStrides[] = {1, 2, 3};
    return make_circulant(spec.dims.at(0), kStrides);
  }
  if (f == "tree") return make_random_tree(spec.dims.at(0), rng);
  if (f == "wan")
    return make_wan(spec.dims.at(0),
                    std::max<std::size_t>(3, spec.dims.at(0) / 4), rng);
  if (f == "grid") return make_grid(spec.dims.at(0), spec.dims.at(1));
  if (f == "torus") return make_torus(spec.dims.at(0), spec.dims.at(1));
  if (f == "toroid") return make_toroid(spec.dims);
  if (f == "hypercube") return make_hypercube(spec.dims.at(0));
  if (f == "er") return make_erdos_renyi(spec.dims.at(0), spec.p, rng);
  if (f == "ba")
    return make_barabasi_albert(spec.dims.at(0), spec.dims.at(1), rng);
  if (f == "dc")
    return make_datacenter(spec.dims.at(0), spec.dims.at(1), spec.dims.at(2));
  fail("unknown topology family: '" + f + "'");
}

std::vector<std::string> topo_families() {
  return {"line",  "ring",   "star",      "complete", "circulant",
          "tree",  "wan",    "grid",      "torus",    "toroid",
          "hypercube", "er", "ba",        "dc"};
}

}  // namespace cs::lab
