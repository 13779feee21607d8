#include "core/report.hpp"

#include <set>
#include <sstream>

namespace cs {
namespace {

/// Ordered pairs (from, to) on the critical cycle.
std::set<std::pair<NodeId, NodeId>> critical_edges(const SyncOutcome& out) {
  std::set<std::pair<NodeId, NodeId>> edges;
  const std::vector<NodeId>& cycle = out.critical_cycle;
  for (std::size_t i = 0; i < cycle.size(); ++i)
    edges.emplace(cycle[i], cycle[(i + 1) % cycle.size()]);
  return edges;
}

}  // namespace

std::string format_report(const SystemModel& model, const SyncOutcome& out) {
  std::ostringstream os;
  os << "chronosync report\n";
  os << "  processors: " << model.processor_count()
     << ", links: " << model.topology().link_count() << "\n";

  if (out.bounded()) {
    os << "  guaranteed precision: " << out.optimal_precision.str()
       << " s\n";
  } else {
    os << "  guaranteed precision: unbounded ("
       << out.components.component_count << " finiteness components)\n";
    for (std::size_t c = 0; c < out.component_precision.size(); ++c)
      os << "    component " << c
         << " precision: " << out.component_precision[c] << " s\n";
  }

  os << "  corrections:\n";
  for (std::size_t p = 0; p < out.corrections.size(); ++p) {
    os << "    p" << p << ": " << out.corrections[p];
    if (!out.bounded())
      os << "  (component " << out.components.component[p] << ")";
    os << "\n";
  }

  const auto critical = critical_edges(out);
  if (!critical.empty()) {
    os << "  critical cycle:";
    for (const auto& [a, b] : critical) os << " p" << a << "->p" << b;
    os << "\n";
  }

  os << "  shift estimates (m̃ls):\n";
  for (const Edge& e : out.mls_graph.edges())
    os << "    p" << e.from << " -> p" << e.to << ": " << e.weight << "\n";

  for (auto [a, b] : model.topology().links)
    os << "  link p" << a << "-p" << b << ": "
       << model.constraint(a, b).describe() << "\n";
  return os.str();
}

std::string to_dot(const SyncOutcome& out) {
  const auto critical = critical_edges(out);
  std::ostringstream os;
  os << "digraph mls {\n";
  os << "  rankdir=LR;\n  node [shape=circle];\n";
  for (std::size_t p = 0; p < out.corrections.size(); ++p)
    os << "  p" << p << " [label=\"p" << p << "\\n" << out.corrections[p]
       << "\"];\n";
  for (const Edge& e : out.mls_graph.edges()) {
    os << "  p" << e.from << " -> p" << e.to << " [label=\"" << e.weight
       << "\"";
    if (critical.contains({e.from, e.to}))
      os << ", color=red, penwidth=2";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cs
