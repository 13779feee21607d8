#include "core/zones.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "common/error.hpp"
#include "common/pool.hpp"
#include "core/local_estimates.hpp"
#include "core/precision.hpp"

namespace cs {

std::vector<std::vector<NodeId>> ZonePlan::members() const {
  std::vector<std::vector<NodeId>> groups(count);
  for (NodeId v = 0; v < zone_of.size(); ++v)
    groups[zone_of[v]].push_back(v);
  return groups;
}

ZonePlan zone_plan_from_assignment(std::span<const std::uint32_t> zone_of) {
  if (zone_of.empty()) fail("zone plan: empty assignment");
  ZonePlan plan;
  plan.zone_of.resize(zone_of.size());
  // Densify ids in first-appearance order so callers may hand in any
  // labeling (rack numbers, region codes, ...).
  std::unordered_map<std::uint32_t, std::uint32_t> dense;
  dense.reserve(zone_of.size());
  for (std::size_t v = 0; v < zone_of.size(); ++v) {
    const auto [it, fresh] = dense.try_emplace(
        zone_of[v], static_cast<std::uint32_t>(plan.count));
    if (fresh) ++plan.count;
    plan.zone_of[v] = it->second;
  }
  return plan;
}

ZonePlan greedy_bfs_zones(std::size_t node_count,
                          std::span<const std::pair<NodeId, NodeId>> links,
                          std::size_t target_size) {
  if (node_count == 0) fail("zone plan: empty graph");
  if (target_size == 0) fail("zone plan: target zone size must be >= 1");

  // Undirected adjacency, neighbors ascending for a deterministic BFS.
  std::vector<std::vector<NodeId>> adj(node_count);
  for (const auto& [a, b] : links) {
    if (a >= node_count || b >= node_count)
      fail("zone plan: link endpoint out of range");
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());

  ZonePlan plan;
  constexpr auto kUnassigned = std::numeric_limits<std::uint32_t>::max();
  plan.zone_of.assign(node_count, kUnassigned);
  for (NodeId seed = 0; seed < node_count; ++seed) {
    if (plan.zone_of[seed] != kUnassigned) continue;
    const auto zone = static_cast<std::uint32_t>(plan.count++);
    std::queue<NodeId> frontier;
    frontier.push(seed);
    plan.zone_of[seed] = zone;
    std::size_t absorbed = 1;
    while (!frontier.empty() && absorbed < target_size) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId w : adj[v]) {
        if (plan.zone_of[w] != kUnassigned) continue;
        plan.zone_of[w] = zone;
        frontier.push(w);
        if (++absorbed >= target_size) break;
      }
    }
  }
  return plan;
}

ZonePlan greedy_bfs_zones(const Topology& topo, std::size_t target_size) {
  return greedy_bfs_zones(topo.node_count, topo.links, target_size);
}

ZonePlan datacenter_zones(std::size_t spines, std::size_t racks,
                          std::size_t hosts) {
  if (spines == 0 || racks == 0)
    fail("zone plan: datacenter needs spines >= 1, racks >= 1");
  const std::size_t n = spines + racks * (1 + hosts);
  ZonePlan plan;
  plan.zone_of.resize(n);
  plan.count = spines + racks;
  plan.leaders.resize(plan.count);
  for (std::size_t s = 0; s < spines; ++s)
    plan.leaders[s] = static_cast<NodeId>(s);
  for (std::size_t r = 0; r < racks; ++r)
    plan.leaders[spines + r] = static_cast<NodeId>(spines + r);  // the ToR
  // Node order matches make_datacenter: spines, ToRs, hosts rack-major.
  for (std::size_t s = 0; s < spines; ++s)
    plan.zone_of[s] = static_cast<std::uint32_t>(s);
  for (std::size_t r = 0; r < racks; ++r)
    plan.zone_of[spines + r] = static_cast<std::uint32_t>(spines + r);
  for (std::size_t r = 0; r < racks; ++r)
    for (std::size_t h = 0; h < hosts; ++h)
      plan.zone_of[spines + racks + r * hosts + h] =
          static_cast<std::uint32_t>(spines + r);
  return plan;
}

namespace {

struct ZoneSolve {
  bool bounded{true};
  double a_max{0.0};
  double thm46_gap{0.0};
  std::vector<double> x;            // local-index corrections, leader gauge
  std::vector<double> from_leader;  // m̃s_Z(L, i)
  std::vector<double> to_leader;    // m̃s_Z(i, L)
};

void validate_plan(const ZonePlan& plan, std::size_t n) {
  if (plan.zone_of.size() != n)
    fail("zone plan covers " + std::to_string(plan.zone_of.size()) +
         " nodes, graph has " + std::to_string(n));
  if (plan.count == 0) fail("zone plan: zero zones");
  std::vector<bool> seen(plan.count, false);
  for (const std::uint32_t z : plan.zone_of) {
    if (z >= plan.count) fail("zone plan: zone id out of range");
    seen[z] = true;
  }
  for (std::size_t z = 0; z < plan.count; ++z)
    if (!seen[z])
      fail("zone plan: zone " + std::to_string(z) + " is empty");
}

}  // namespace

ZonedOutcome synchronize_zoned_mls(Digraph mls_graph, const ZonePlan& plan_in,
                                   const SyncOptions& options) {
  const std::size_t n = mls_graph.node_count();
  validate_plan(plan_in, n);
  if (options.root >= n) fail("zone plan: root out of range");

  ZonedOutcome out;
  out.plan = plan_in;
  const std::size_t zcount = out.plan.count;
  const auto groups = out.plan.members();

  // Resolve leaders: smallest member, except the root's zone gets the root
  // itself — that makes the single-zone case coincide with the dense
  // pipeline bit-for-bit (same gauge, same matrix, same solve).
  if (out.plan.leaders.empty()) {
    out.plan.leaders.resize(zcount);
    for (std::size_t z = 0; z < zcount; ++z)
      out.plan.leaders[z] = groups[z].front();
    out.plan.leaders[out.plan.zone_of[options.root]] = options.root;
  } else {
    if (out.plan.leaders.size() != zcount)
      fail("zone plan: need one leader per zone");
    for (std::size_t z = 0; z < zcount; ++z) {
      const NodeId lead = out.plan.leaders[z];
      if (lead >= n || out.plan.zone_of[lead] != z)
        fail("zone plan: leader of zone " + std::to_string(z) +
             " is not a member");
    }
  }

  // Local index of each node within its zone.
  std::vector<std::uint32_t> local(n);
  for (std::size_t z = 0; z < zcount; ++z)
    for (std::size_t i = 0; i < groups[z].size(); ++i)
      local[groups[z][i]] = static_cast<std::uint32_t>(i);

  // Bucket m̃ls edges by zone (edge-id order is preserved per bucket, so
  // each induced subgraph is built exactly as the dense path would).
  std::vector<std::vector<EdgeId>> intra(zcount);
  std::vector<EdgeId> cross;
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.zone_partition_seconds");
    for (EdgeId e = 0; e < mls_graph.edge_count(); ++e) {
      const Edge& ed = mls_graph.edge(e);
      const std::uint32_t za = out.plan.zone_of[ed.from];
      const std::uint32_t zb = out.plan.zone_of[ed.to];
      if (za == zb)
        intra[za].push_back(e);
      else
        cross.push_back(e);
    }
  }

  // Per-zone GLOBAL ESTIMATES + SHIFTS across the pool.  Each task touches
  // only its own ZoneSolve slot and reads the frozen m̃ls graph, so any
  // thread count yields byte-identical results.
  mls_graph.freeze();
  std::vector<ZoneSolve> solved(zcount);
  {
    auto timer = Metrics::scoped(options.metrics, "stage.zone_solves_seconds");
    PoolOptions pool;
    pool.threads = options.threads;
    pool.metrics = options.metrics;
    run_indexed(
        zcount,
        [&](std::size_t z) {
          const auto& nodes = groups[z];
          const std::size_t k = nodes.size();
          Digraph sub(k);
          for (const EdgeId e : intra[z]) {
            const Edge& ed = mls_graph.edge(e);
            sub.add_edge(local[ed.from], local[ed.to], ed.weight);
          }
          const DistanceMatrix ms = global_shift_estimates(sub);
          ShiftsOptions so;
          so.root = local[out.plan.leaders[z]];
          ShiftsResult sr = compute_shifts(ms, so);

          ZoneSolve& s = solved[z];
          s.bounded = sr.bounded();
          s.a_max = sr.a_max.value();
          if (sr.bounded()) {
            const ExtReal rho = guaranteed_precision(ms, sr.corrections);
            s.thm46_gap = std::fabs(rho.value() - sr.a_max.value());
          }
          s.from_leader.resize(k);
          s.to_leader.resize(k);
          const std::size_t lead = so.root;
          for (std::size_t i = 0; i < k; ++i) {
            s.from_leader[i] = ms.at(lead, i);
            s.to_leader[i] = ms.at(i, lead);
          }
          s.x = std::move(sr.corrections);
        },
        pool);
  }

  // Fold the leader quotient: edge A→B = tightest crossing-chain bound
  // m̃s_A(L_A, u) + m̃ls(u, v) + m̃s_B(v, L_B).  Serial, edge-id order, so
  // the quotient is identical for any thread count upstream.  The quotient
  // APSP re-applies kMlsSlack per quotient edge, covering the crossing
  // edge's slack; the intra-zone terms already carry theirs.
  out.quotient = Digraph(zcount);
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.zone_quotient_seconds");
    std::vector<double> best(zcount * zcount, kInfDist);
    for (const EdgeId e : cross) {
      const Edge& ed = mls_graph.edge(e);
      const std::uint32_t za = out.plan.zone_of[ed.from];
      const std::uint32_t zb = out.plan.zone_of[ed.to];
      const double head = solved[za].from_leader[local[ed.from]];
      const double tail = solved[zb].to_leader[local[ed.to]];
      if (head == kInfDist || tail == kInfDist) continue;
      double& slot = best[za * zcount + zb];
      slot = std::min(slot, head + ed.weight + tail);
    }
    for (std::size_t a = 0; a < zcount; ++a)
      for (std::size_t b = 0; b < zcount; ++b)
        if (best[a * zcount + b] != kInfDist)
          out.quotient.add_edge(static_cast<NodeId>(a),
                                static_cast<NodeId>(b),
                                best[a * zcount + b]);
  }

  out.quotient_ms = global_shift_estimates(out.quotient, options.metrics);
  {
    ShiftsOptions qo;
    qo.root = out.plan.zone_of[options.root];
    qo.metrics = options.metrics;
    ShiftsResult qs = compute_shifts(out.quotient_ms, qo);
    out.quotient_a_max = qs.a_max;
    if (qs.bounded()) {
      const ExtReal rho = guaranteed_precision(out.quotient_ms,
                                               qs.corrections);
      out.quotient_thm46_gap = std::fabs(rho.value() - qs.a_max.value());
    }
    out.leader_corrections = std::move(qs.corrections);
  }

  // Compose and re-gauge to the global root.
  out.corrections.resize(n);
  for (std::size_t z = 0; z < zcount; ++z)
    for (std::size_t i = 0; i < groups[z].size(); ++i)
      out.corrections[groups[z][i]] =
          solved[z].x[i] + out.leader_corrections[z];
  const double c_root = out.corrections[options.root];
  if (c_root != 0.0)
    for (double& c : out.corrections) c -= c_root;

  // Per-zone stats + the composed bound.
  out.zones.resize(zcount);
  out.zones_bounded = true;
  out.max_zone_a_max = 0.0;
  for (std::size_t z = 0; z < zcount; ++z) {
    ZoneStats& st = out.zones[z];
    st.leader = out.plan.leaders[z];
    st.size = static_cast<std::uint32_t>(groups[z].size());
    st.bounded = solved[z].bounded;
    st.a_max = solved[z].a_max;
    st.thm46_gap = solved[z].thm46_gap;
    if (st.bounded)
      out.max_zone_a_max = std::max(out.max_zone_a_max, st.a_max);
    else
      out.zones_bounded = false;
  }

  if (!out.zones_bounded || (zcount > 1 && !out.quotient_a_max.is_finite())) {
    out.composed_bound = ExtReal::infinity();
  } else if (zcount == 1) {
    out.composed_bound = ExtReal{solved[0].a_max};
  } else {
    // max over zone pairs of Ã^max_A + Ã^max_B + q̃s(A,B) − y_A + y_B; the
    // quotient being bounded guarantees every off-diagonal q̃s is finite.
    const auto& y = out.leader_corrections;
    double worst = out.max_zone_a_max;
    for (std::size_t a = 0; a < zcount; ++a)
      for (std::size_t b = 0; b < zcount; ++b) {
        if (a == b) continue;
        worst = std::max(worst, solved[a].a_max + solved[b].a_max +
                                    out.quotient_ms.at(a, b) - y[a] + y[b]);
      }
    out.composed_bound = ExtReal{worst};
  }

  metrics_increment(options.metrics, "pipeline.zoned_runs");
  out.mls_graph = std::move(mls_graph);
  return out;
}

ZonedOutcome synchronize_zoned(const SystemModel& model,
                               std::span<const View> views,
                               const ZonePlan& plan,
                               const SyncOptions& options) {
  if (views.size() != model.processor_count())
    throw InvalidExecution("need exactly one view per processor");
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].pid != i)
      throw InvalidExecution("views must be ordered by processor id");

  Digraph mls;
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.local_estimates_seconds");
    mls = ingest_views(model, views, options.match, options.threads).mls;
  }
  return synchronize_zoned_mls(std::move(mls), plan, options);
}

ZoneRealized realized_precision_zoned(std::span<const RealTime> starts,
                                      std::span<const double> x,
                                      const ZonePlan& plan) {
  const std::size_t n = starts.size();
  if (x.size() != n)
    throw InvalidExecution("realized precision: starts/corrections mismatch");
  if (plan.zone_of.size() != n)
    throw InvalidExecution("realized precision: plan does not cover starts");

  ZoneRealized r;
  r.per_zone.assign(plan.count, 0.0);
  if (n < 2) return r;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> lo(plan.count, kInf), hi(plan.count, -kInf);
  for (std::size_t p = 0; p < n; ++p) {
    const double d = starts[p].sec - x[p];
    if (std::isnan(d))
      throw InvalidExecution("realized precision: non-finite discrepancy");
    const std::uint32_t z = plan.zone_of[p];
    lo[z] = std::min(lo[z], d);
    hi[z] = std::max(hi[z], d);
  }

  double glo = kInf, ghi = -kInf;
  for (std::size_t z = 0; z < plan.count; ++z) {
    r.per_zone[z] = hi[z] - lo[z];
    r.intra = std::max(r.intra, r.per_zone[z]);
    glo = std::min(glo, lo[z]);
    ghi = std::max(ghi, hi[z]);
  }
  r.overall = ghi - glo;

  if (plan.count >= 2) {
    // cross = max over A of (hi_A − min over B ≠ A of lo_B): track the two
    // smallest zone minima so the "B ≠ A" exclusion is O(1) per zone.
    std::size_t best = 0;
    for (std::size_t z = 1; z < plan.count; ++z)
      if (lo[z] < lo[best]) best = z;
    double second = kInf;
    for (std::size_t z = 0; z < plan.count; ++z)
      if (z != best) second = std::min(second, lo[z]);
    for (std::size_t z = 0; z < plan.count; ++z) {
      const double other = (z == best) ? second : lo[best];
      r.cross = std::max(r.cross, hi[z] - other);
    }
    r.cross = std::max(r.cross, 0.0);
  }
  return r;
}

}  // namespace cs
