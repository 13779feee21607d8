#include "core/report.hpp"

#include <gtest/gtest.h>

#include "support/builders.hpp"

namespace cs {
namespace {

TEST(Report, BoundedInstanceContainsKeySections) {
  // A small ring, and a 512-node ring under [1, 50] ms bounds probed by 4
  // ping-pong rounds from starts up to 0.5 s apart: at that size float
  // noise on the weight-0 critical cycle defeats an exact rebuild of θ from
  // the m̃s matrix, so the report must carry the θ SHIFTS found.
  struct Input {
    SystemModel model;
    std::uint64_t seed;
    double skew;
    std::string bounds;
  };
  Input inputs[] = {
      {test::bounded_model(make_ring(4), 0.01, 0.05), 5, 0.2,
       "bounds[0.01,0.05]"},
      {test::bounded_model(make_ring(512), 0.001, 0.05), 1, 0.5,
       "bounds[0.001,0.05]"},
  };
  for (const Input& in : inputs) {
    const SimResult sim = test::run_ping_pong(in.model, in.seed, in.skew);
    const auto views = sim.execution.views();
    const SyncOutcome out = synchronize(in.model, views);
    const std::string report = format_report(in.model, out);
    const std::string what =
        "ring-" + std::to_string(in.model.processor_count());

    EXPECT_NE(report.find("guaranteed precision:"), std::string::npos)
        << what;
    EXPECT_NE(report.find("corrections:"), std::string::npos) << what;
    EXPECT_NE(report.find("critical cycle:"), std::string::npos) << what;
    EXPECT_NE(report.find("shift estimates"), std::string::npos) << what;
    EXPECT_NE(report.find(in.bounds), std::string::npos) << what;
    EXPECT_EQ(report.find("unbounded"), std::string::npos) << what;
  }
}

TEST(Report, UnboundedInstanceListsComponents) {
  SystemModel model = test::lower_bound_model(make_line(2), 0.01);
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {});
  const auto views = e.views();
  const SyncOutcome out = synchronize(model, views);
  const std::string report = format_report(model, out);
  EXPECT_NE(report.find("unbounded"), std::string::npos);
  EXPECT_NE(report.find("component"), std::string::npos);
}

TEST(Dot, WellFormedAndHighlightsCriticalCycle) {
  SystemModel model = test::bounded_model(make_ring(4), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, 6, 0.2);
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  const std::string dot = to_dot(out);

  EXPECT_EQ(dot.rfind("digraph mls {", 0), 0u);
  EXPECT_NE(dot.find("p0 ->"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  // Every processor appears as a node.
  for (int p = 0; p < 4; ++p)
    EXPECT_NE(dot.find("p" + std::to_string(p) + " [label="),
              std::string::npos);
}

}  // namespace
}  // namespace cs
