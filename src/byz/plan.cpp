#include "byz/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cs::byz {
namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Stateless per-(seed, agent, peer) uniform in [0, 1): the equivocation
/// offsets.  splitmix64 finalizer over a mixed key — no stream draws, so
/// equivocation never perturbs the agent's noise stream.
double hash01(std::uint64_t seed, ProcessorId pid, ProcessorId peer) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (pid + 1)) ^
                    (0xbf58476d1ce4e5b9ULL * (peer + 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

const char* behavior_name(Behavior b) {
  switch (b) {
    case Behavior::kHonest: return "none";
    case Behavior::kLieConst: return "lie-const";
    case Behavior::kLieRamp: return "lie-ramp";
    case Behavior::kLieRandom: return "lie-random";
    case Behavior::kReplay: return "replay";
    case Behavior::kEquivocate: return "equivocate";
  }
  return "none";
}

Behavior behavior_from_name(const std::string& name) {
  if (name == "none" || name == "honest") return Behavior::kHonest;
  if (name == "lie-const") return Behavior::kLieConst;
  if (name == "lie-ramp") return Behavior::kLieRamp;
  if (name == "lie-random") return Behavior::kLieRandom;
  if (name == "replay") return Behavior::kReplay;
  if (name == "equivocate") return Behavior::kEquivocate;
  throw Error("unknown Byzantine behavior '" + name +
              "' (want lie-const|lie-ramp|lie-random|replay|equivocate)");
}

void ByzPlan::add(AgentPlan agent) {
  if (agent.magnitude < 0.0)
    throw Error("ByzPlan: magnitude must be non-negative");
  if (agent.ramp_span <= 0.0)
    throw Error("ByzPlan: ramp_span must be positive");
  if (!(agent.from <= agent.until))
    throw Error("ByzPlan: inverted active window");
  for (const AgentPlan& a : agents_)
    if (a.pid == agent.pid)
      throw Error("ByzPlan: duplicate assignment for processor " +
                  std::to_string(agent.pid));
  agents_.push_back(agent);
}

void ByzPlan::assign_random(std::size_t n, std::size_t f, Behavior behavior,
                            double magnitude) {
  if (f >= n && f != 0)
    throw Error("ByzPlan: need f < n lying agents");
  Rng master(seed);
  Rng pick = master.split(0);
  std::vector<ProcessorId> ids(n);
  std::iota(ids.begin(), ids.end(), ProcessorId{0});
  for (std::size_t i = 0; i < f; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(pick.uniform_int(
                static_cast<std::uint64_t>(n - i)));
    std::swap(ids[i], ids[j]);
    AgentPlan agent;
    agent.pid = ids[i];
    agent.behavior = behavior;
    agent.magnitude = magnitude;
    add(agent);
  }
}

const AgentPlan* ByzPlan::agent(ProcessorId pid) const {
  for (const AgentPlan& a : agents_)
    if (a.pid == pid) return &a;
  return nullptr;
}

bool ByzPlan::honest() const {
  return std::none_of(agents_.begin(), agents_.end(),
                      [](const AgentPlan& a) { return a.lies(); });
}

std::size_t ByzPlan::liar_count() const {
  return static_cast<std::size_t>(
      std::count_if(agents_.begin(), agents_.end(),
                    [](const AgentPlan& a) { return a.lies(); }));
}

std::string ByzPlan::describe() const {
  if (honest()) return "none";
  const AgentPlan* first = nullptr;
  for (const AgentPlan& a : agents_)
    if (a.lies() && first == nullptr) first = &a;
  return std::string(behavior_name(first->behavior)) +
         " f=" + std::to_string(liar_count()) + " mag=" +
         fmt(first->magnitude);
}

std::string ByzPlanSpec::describe() const {
  if (!byzantine()) return "none";
  std::string out = behavior_name(behavior);
  if (!agents.empty()) {
    out += " agents=";
    for (std::size_t i = 0; i < agents.size(); ++i)
      out += (i > 0 ? "," : "") + std::to_string(agents[i]);
  } else {
    out += " f=" + std::to_string(f);
  }
  out += " mag=" + fmt(magnitude);
  if (behavior == Behavior::kLieRamp) out += " ramp=" + fmt(ramp_span);
  if (from != 0.0) out += " from=" + fmt(from);
  if (std::isfinite(until)) out += " until=" + fmt(until);
  return out;
}

ByzPlanSpec parse_byz_plan(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  if (!(in >> token)) throw Error("byz plan: empty specification");

  ByzPlanSpec spec;
  spec.behavior = behavior_from_name(token);
  if (spec.behavior == Behavior::kHonest) {
    if (in >> token) throw Error("byz plan: 'none' takes no arguments");
    return spec;
  }

  // Numbers read with the trace reader's grammar (docs/TRACE.md §1); ids,
  // counts and the seed as unsigned decimal integers, never through a cast.
  const auto need = [](const std::string& key, const std::string& value,
                       auto parsed) {
    if (!parsed)
      throw Error("byz plan: " + key + " expects a number, got '" + value +
                  "'");
    return *parsed;
  };

  bool have_count = false, have_mag = false;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw Error("byz plan: expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "f") {
      spec.f = need(key, value, text::parse_u64(value));
      have_count = true;
    } else if (key == "agents") {
      std::istringstream list(value);
      std::string pid;
      while (std::getline(list, pid, ','))
        spec.agents.push_back(need("agents", pid, text::parse_id(pid)));
      if (spec.agents.empty())
        throw Error("byz plan: agents= needs at least one pid");
      have_count = true;
    } else if (key == "mag") {
      spec.magnitude = need(key, value, text::parse_number(value));
      have_mag = true;
    } else if (key == "ramp") {
      spec.ramp_span = need(key, value, text::parse_number(value));
    } else if (key == "from") {
      spec.from = need(key, value, text::parse_number(value));
    } else if (key == "until") {
      spec.until = need(key, value, text::parse_number(value));
    } else if (key == "seed") {
      spec.seed = need(key, value, text::parse_u64(value));
    } else {
      throw Error("byz plan: unknown key '" + key + "'");
    }
  }
  if (!have_count)
    throw Error("byz plan: need f=<count> or agents=<pids>");
  if (!have_mag && spec.behavior != Behavior::kReplay)
    throw Error("byz plan: need mag=<seconds>");
  if (spec.magnitude < 0.0)
    throw Error("byz plan: mag must be non-negative");
  if (spec.ramp_span <= 0.0) throw Error("byz plan: ramp must be positive");
  if (!(spec.from <= spec.until))
    throw Error("byz plan: inverted from/until window");
  return spec;
}

ByzPlan resolve_byz_plan(const ByzPlanSpec& spec, std::size_t n) {
  ByzPlan plan;
  plan.seed = spec.seed;
  if (!spec.byzantine()) return plan;
  const auto configure = [&](AgentPlan& a) {
    a.behavior = spec.behavior;
    a.magnitude = spec.magnitude;
    a.ramp_span = spec.ramp_span;
    a.from = spec.from;
    a.until = spec.until;
  };
  if (!spec.agents.empty()) {
    for (ProcessorId pid : spec.agents) {
      if (pid >= n)
        throw Error("byz plan: agent " + std::to_string(pid) +
                    " out of range for n=" + std::to_string(n));
      AgentPlan a;
      a.pid = pid;
      configure(a);
      plan.add(a);
    }
    return plan;
  }
  // assign_random fixes the seeded pid choice; re-apply the remaining
  // spec knobs (window, ramp) on top.
  plan.assign_random(n, spec.f, spec.behavior, spec.magnitude);
  ByzPlan full;
  full.seed = spec.seed;
  for (AgentPlan a : plan.agents()) {
    const ProcessorId pid = a.pid;
    configure(a);
    a.pid = pid;
    full.add(a);
  }
  return full;
}

ClockTime lie_stamp(const AgentPlan& agent, std::uint64_t plan_seed,
                    EventKind kind, ClockTime truth, ProcessorId peer,
                    Rng& rng, ClockTime& last_truth, ClockTime& floor) {
  const ClockTime previous = last_truth;
  last_truth = truth;
  double out = truth.sec;
  if (agent.lies()) {
    // Exactly one uniform per stamped event, drawn before any branching,
    // so the agent's stream stays aligned across behaviors and windows.
    const double u = rng.uniform01();
    if (agent.active_at(truth)) {
      switch (agent.behavior) {
        case Behavior::kHonest:
          break;
        case Behavior::kLieConst:
          out += agent.magnitude;
          break;
        case Behavior::kLieRamp: {
          const double frac = std::clamp(
              (truth.sec - agent.from) / agent.ramp_span, 0.0, 1.0);
          out += agent.magnitude * frac;
          break;
        }
        case Behavior::kLieRandom:
          out += agent.magnitude * (2.0 * u - 1.0);
          break;
        case Behavior::kReplay:
          out = previous.sec;
          break;
        case Behavior::kEquivocate:
          // Coordinated equivocation: lower-id peers are told one story
          // (receive stamps pulled down), higher-id peers the opposite, at
          // a per-peer magnitude in [3·mag/8, mag/2] (stateless hash — no
          // draws).  The sign discipline is what makes the attack bite:
          // every corrupted 2-hop path low->liar->high tightens the same
          // way, so correction errors *compound* across the honest set
          // instead of cancelling, while each individual 2-cycle stays
          // inside its slack (undetected).  Random per-peer offsets are
          // provably capped by the pair-window geometry; this is the
          // worst-case adversary the quorum validation exists for.
          if (kind == EventKind::kReceive && peer != agent.pid) {
            const double scale =
                0.375 + 0.125 * hash01(plan_seed, agent.pid, peer);
            out += (peer > agent.pid ? 1.0 : -1.0) * agent.magnitude * scale;
          }
          break;
      }
    }
  }
  // History requires nondecreasing stamps; a lie may not rewind the tape.
  out = std::max(out, floor.sec);
  floor = ClockTime{out};
  return floor;
}

ClockTime lie_payload_stamp(const AgentPlan& agent, std::uint64_t plan_seed,
                            ClockTime truth, ProcessorId peer, Rng& rng,
                            ClockTime& last_truth) {
  const ClockTime previous = last_truth;
  last_truth = truth;
  double out = truth.sec;
  if (agent.lies()) {
    const double u = rng.uniform01();  // one draw per call, as in lie_stamp
    if (agent.active_at(truth)) {
      switch (agent.behavior) {
        case Behavior::kHonest:
          break;
        case Behavior::kLieConst:
          out += agent.magnitude;
          break;
        case Behavior::kLieRamp: {
          const double frac = std::clamp(
              (truth.sec - agent.from) / agent.ramp_span, 0.0, 1.0);
          out += agent.magnitude * frac;
          break;
        }
        case Behavior::kLieRandom:
          out += agent.magnitude * (2.0 * u - 1.0);
          break;
        case Behavior::kReplay:
          out = previous.sec;
          break;
        case Behavior::kEquivocate:
          // Same sign-coordinated per-peer story as lie_stamp's receive
          // branch, applied at send time: the payload stamp each neighbor
          // reads is this message's only audience.
          if (peer != agent.pid) {
            const double scale =
                0.375 + 0.125 * hash01(plan_seed, agent.pid, peer);
            out += (peer > agent.pid ? 1.0 : -1.0) * agent.magnitude * scale;
          }
          break;
      }
    }
  }
  return ClockTime{out};
}

}  // namespace cs::byz
