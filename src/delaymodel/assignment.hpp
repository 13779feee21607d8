// SystemModel: the pair (G, A) — a topology plus one delay constraint per
// link.  This is the object both the simulator (to generate admissible
// executions) and the pipeline (to compute m̃ls) are configured with.
//
// Every link starts under the weakest assumption, "no bounds" (delays are
// only non-negative); callers strengthen links individually, which is how
// the paper's mixed/heterogeneous systems are expressed.
//
// The model fixes the *direction order* every per-link array of the
// pipeline uses: link i of the topology owns slots 2i (a -> b) and 2i + 1
// (b -> a).  A flat open-addressing index built once from the topology
// maps (p, q) to its slot; LinkStats and LinkCoverage are laid out in that
// order, and the constraints are stored by link index.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "common/flat_index.hpp"
#include "delaymodel/constraint.hpp"
#include "graph/topology.hpp"
#include "model/execution.hpp"

namespace cs {

class SystemModel {
 public:
  /// What direction() returns for a pair that is not a link.
  static constexpr std::size_t kNoDirection =
      std::numeric_limits<std::size_t>::max();

  /// Throws InvalidAssumption on a self-link, a link listed twice (in
  /// either orientation) or an endpoint >= node_count: the direction index
  /// holds exactly one slot pair per link.
  explicit SystemModel(Topology topo);

  std::size_t processor_count() const { return topo_.node_count; }
  const Topology& topology() const { return topo_; }

  bool has_link(ProcessorId a, ProcessorId b) const {
    return direction(a, b) != kNoDirection;
  }

  /// Slot of direction p -> q: 2i when it is link i's a -> b, 2i + 1 when
  /// it is b -> a; kNoDirection when {p, q} is not a link.
  std::size_t direction(ProcessorId p, ProcessorId q) const {
    const std::uint32_t d = directions_.find(direction_key(p, q));
    return d == FlatIndex::kAbsent ? kNoDirection : d;
  }

  /// 2 * link count: the length of every per-direction array.
  std::size_t direction_count() const { return 2 * topo_.link_count(); }

  /// Replace the constraint on the link (c->a(), c->b()); the link must
  /// exist in the topology.
  void set_constraint(std::unique_ptr<LinkConstraint> c);

  /// Constraint of link {a, b} (order-insensitive).  Throws if not a link.
  const LinkConstraint& constraint(ProcessorId a, ProcessorId b) const;

  /// Constraint of topology link i.
  const LinkConstraint& link_constraint(std::size_t link) const {
    return *constraints_[link];
  }

  /// True when every link's constraint is extreme-sufficient
  /// (LinkConstraint::extreme_sufficient): m̃ls is then a function of the
  /// per-direction extremes alone, and the pipeline folds paired messages
  /// straight into LinkStats instead of keeping every observation.
  bool extreme_sufficient() const { return series_links_ == 0; }

  /// Observed actual delays of link {a, b} in an execution, oriented
  /// canonically (min endpoint -> max endpoint).
  LinkDelays link_delays(const Execution& exec, ProcessorId a,
                         ProcessorId b) const;

  /// Is the execution admissible under this system?  Locality (§5.1): true
  /// iff each link's constraint admits that link's delays.  Throws
  /// InvalidExecution if a message crosses a non-link pair.
  bool admissible(const Execution& exec) const;

 private:
  static std::uint64_t direction_key(ProcessorId p, ProcessorId q) {
    return (static_cast<std::uint64_t>(p) << 32) | q;
  }

  Topology topo_;
  FlatIndex directions_;
  std::vector<std::unique_ptr<LinkConstraint>> constraints_;  // link order
  std::size_t series_links_{0};  // links that are not extreme-sufficient
};

}  // namespace cs
