// Shared scaffolding for the experiment binaries (E1-E8).
//
// Each bench is a standalone executable that prints one or more tables to
// stdout — the reproduction of "the rows the paper reports".  The PODC '93
// preliminary paper contains no empirical tables, so these tables realize
// the claims of its theorems empirically; EXPERIMENTS.md records the
// expected shapes and the measured outcomes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cristian.hpp"
#include "baselines/hmm.hpp"
#include "baselines/lundelius_lynch.hpp"
#include "baselines/midpoint.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/precision.hpp"
#include "core/shifts.hpp"
#include "core/synchronizer.hpp"
#include "graph/johnson.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"

namespace cs::bench {

struct Instance {
  SimResult sim;
  std::vector<View> views;
  std::vector<RealTime> starts;
};

/// Run the ping-pong probe protocol on the model and package what the
/// evaluators need.
inline Instance probe(const SystemModel& model, std::uint64_t seed,
                      double skew, std::size_t rounds = 4,
                      double delay_scale = 0.1) {
  Rng rng(seed);
  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), skew, rng);
  opts.seed = seed;
  opts.delay_scale = delay_scale;
  // Scale the runaway guard with the instance so 100k-node fabrics (E16)
  // fit; a protocol misbehaving relative to the topology still trips it.
  opts.max_events = std::max<std::size_t>(
      opts.max_events,
      64 * (rounds + 1) *
          (model.topology().link_count() + model.processor_count()));
  PingPongParams params;
  params.warmup = Duration{skew + 0.1};
  params.rounds = rounds;
  Instance inst{simulate(model, make_ping_pong(params), opts), {}, {}};
  inst.views = inst.sim.execution.views();
  inst.starts = inst.sim.execution.start_times();
  return inst;
}

/// Guaranteed precision ρ̄ of an arbitrary correction vector on this
/// instance (evaluated against the instance's own m̃s estimates).
inline double guaranteed(const SyncOutcome& opt,
                         const std::vector<double>& x) {
  return guaranteed_precision(opt.ms_estimates, x).finite();
}

inline void print_header(const std::string& id, const std::string& title) {
  std::cout << "\n==== " << id << ": " << title << " ====\n";
}

/// Builder for the standard bench-JSON shape shared by the instrumented
/// benches (BENCH_*.json artifacts):
///
///   {"schema_version": 1, "bench": NAME, "scenarios": [{...}, ...]}
///
/// Fields keep insertion order; doubles render as %.17g would
/// (cs::text::append_double) so reports round-trip exactly.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  BenchJson& scenario(const std::string& name) {
    rows_.emplace_back();
    return field("name", name);
  }
  BenchJson& field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + value + "\"");
    return *this;
  }
  BenchJson& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  BenchJson& field(const std::string& key, double value) {
    rows_.back().emplace_back(key, cs::text::format_double(value));
    return *this;
  }
  BenchJson& field(const std::string& key, std::size_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
    return *this;
  }

  /// Writes the document; returns false (with a stderr note) on I/O error.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    os << "{\n  \"schema_version\": 1,\n  \"bench\": \"" << bench_
       << "\",\n  \"scenarios\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "    {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f)
        os << (f == 0 ? "" : ",") << "\n      \"" << rows_[r][f].first
           << "\": " << rows_[r][f].second;
      os << "\n    }" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Uniform per-link constraint helpers (mirror the test builders; benches
/// must not link against test code).
inline SystemModel bounded_model(Topology topo, double lb, double ub) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bounds(a, b, lb, ub));
  return m;
}

inline SystemModel lower_bound_model(Topology topo, double lb) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_lower_bound_only(a, b, lb));
  return m;
}

inline SystemModel bias_model(Topology topo, double bias) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bias(a, b, bias));
  return m;
}

inline SystemModel composite_model(Topology topo, double lb, double ub,
                                   double bias) {
  SystemModel m(std::move(topo));
  for (auto [a, b] : m.topology().links) {
    std::vector<std::unique_ptr<LinkConstraint>> parts;
    parts.push_back(make_bounds(a, b, lb, ub));
    parts.push_back(make_bias(a, b, bias));
    m.set_constraint(make_composite(a, b, std::move(parts)));
  }
  return m;
}

}  // namespace cs::bench
