#include "io/views_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "core/synchronizer.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

TEST(ViewsIo, RoundTripExact) {
  SystemModel model = test::bounded_model(make_ring(4), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, 7, 0.3);
  const auto views = sim.execution.views();

  std::stringstream ss;
  save_views(ss, views);
  const auto loaded = load_views(ss);
  ASSERT_EQ(loaded.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i)
    EXPECT_EQ(loaded[i], views[i]) << "view " << i;
}

TEST(ViewsIo, RoundTripPreservesPipelineOutput) {
  // The acid test: the pipeline must produce bit-identical corrections
  // from reloaded views.
  SystemModel model = test::bounded_model(make_complete(4), 0.005, 0.03);
  const SimResult sim = test::run_ping_pong(model, 11, 0.2);
  const auto views = sim.execution.views();

  std::stringstream ss;
  save_views(ss, views);
  const auto loaded = load_views(ss);

  const SyncOutcome a = synchronize(model, views);
  const SyncOutcome b = synchronize(model, loaded);
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_DOUBLE_EQ(a.corrections[p], b.corrections[p]);
  EXPECT_DOUBLE_EQ(a.optimal_precision.value(),
                   b.optimal_precision.value());
}

TEST(ViewsIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# a comment\n\nchronosync-views v1\n"
     << "# another\nprocessors 1\nview 0 1\nS 0\n";
  const auto views = load_views(ss);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].events.size(), 1u);
}

TEST(ViewsIo, RejectsGarbage) {
  {
    std::stringstream ss("not a header\n");
    EXPECT_THROW(load_views(ss), Error);
  }
  {
    std::stringstream ss("chronosync-views v1\nprocessors 1\nview 0 1\nX\n");
    EXPECT_THROW(load_views(ss), Error);
  }
  {
    std::stringstream ss(
        "chronosync-views v1\nprocessors 1\nview 0 1\nD abc 1 0\n");
    EXPECT_THROW(load_views(ss), Error);
  }
  {
    // Wrong pid order.
    std::stringstream ss(
        "chronosync-views v1\nprocessors 2\nview 1 1\nS 0\nview 0 1\nS 0\n");
    EXPECT_THROW(load_views(ss), Error);
  }
}

TEST(ModelIo, RoundTripAllKinds) {
  Topology topo{5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}};
  SystemModel model(std::move(topo));
  model.set_constraint(make_bounds(0, 1, 0.001, 0.004));
  model.set_constraint(make_lower_bound_only(1, 2, 0.002));
  model.set_constraint(make_bias(2, 3, 0.01));
  model.set_constraint(make_windowed_bias(3, 4, 0.01, 2.5));
  // 0-4 keeps the default no-bounds.

  std::stringstream ss;
  save_model(ss, model);
  const SystemModel loaded = load_model(ss);
  ASSERT_EQ(loaded.processor_count(), 5u);
  ASSERT_EQ(loaded.topology().link_count(), 5u);
  EXPECT_EQ(loaded.constraint(0, 1).describe(),
            model.constraint(0, 1).describe());
  EXPECT_EQ(loaded.constraint(1, 2).describe(),
            model.constraint(1, 2).describe());
  EXPECT_EQ(loaded.constraint(2, 3).describe(),
            model.constraint(2, 3).describe());
  EXPECT_EQ(loaded.constraint(3, 4).describe(),
            model.constraint(3, 4).describe());
  EXPECT_EQ(loaded.constraint(0, 4).describe(),
            model.constraint(0, 4).describe());
}

TEST(ModelIo, RepeatedLinkLinesConjoin) {
  // Adjacent or interleaved, repeated lines of one link conjoin, and links
  // keep the order of their first line.
  using Links = std::vector<std::pair<NodeId, NodeId>>;
  const std::pair<const char*, Links> cases[] = {
      {"processors 2\n"
       "link 0 1 bounds 0.001 0.02\nlink 0 1 bias 0.005\n",
       {{0, 1}}},
      {"processors 3\n"
       "link 0 1 bounds 0.001 0.02\nlink 1 2 none\nlink 0 1 bias 0.005\n",
       {{0, 1}, {1, 2}}},
  };
  for (const auto& [body, links] : cases) {
    std::stringstream ss(std::string("chronosync-model v1\n") + body);
    const SystemModel model = load_model(ss);
    EXPECT_EQ(model.constraint(0, 1).describe(),
              "bounds[0.001,0.02]/[0.001,0.02] & bias[0.005]")
        << body;
    EXPECT_EQ(model.topology().links, links) << body;
  }
}

TEST(ModelIo, RoundTripComposite) {
  Topology topo{2, {{0, 1}}};
  SystemModel model(std::move(topo));
  std::vector<std::unique_ptr<LinkConstraint>> parts;
  parts.push_back(make_bounds(0, 1, 0.001, 0.02));
  parts.push_back(make_bias(0, 1, 0.005));
  model.set_constraint(make_composite(0, 1, std::move(parts)));

  std::stringstream ss;
  save_model(ss, model);
  const SystemModel loaded = load_model(ss);
  EXPECT_EQ(loaded.constraint(0, 1).describe(),
            model.constraint(0, 1).describe());
}

TEST(ModelIo, RejectsBadInput) {
  {
    std::stringstream ss("chronosync-model v1\nprocessors 2\nlink 0 5 none\n");
    EXPECT_THROW(load_model(ss), Error);
  }
  {
    std::stringstream ss(
        "chronosync-model v1\nprocessors 2\nlink 0 1 warp 3\n");
    EXPECT_THROW(load_model(ss), Error);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ViewsIo, SubnormalsRoundTripExactly) {
  // The views and model counterpart of TraceFormat.SubnormalsRoundTripExactly:
  // every value the writers print reads back bit for bit.
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> extremes = {denorm, 1e-310, -0.0,
                                        inf,    -inf,   DBL_MAX};

  std::vector<View> views(1);
  for (std::size_t i = 0; i < extremes.size(); ++i) {
    ViewEvent send;
    send.kind = EventKind::kSend;
    send.when = ClockTime{extremes[i]};
    send.msg = i;
    views[0].events.push_back(send);
    ViewEvent timer;
    timer.kind = EventKind::kTimerSet;
    timer.when = ClockTime{extremes[(i + 1) % extremes.size()]};
    timer.timer_at = ClockTime{extremes[(i + 2) % extremes.size()]};
    views[0].events.push_back(timer);
  }
  std::stringstream vs;
  save_views(vs, views);
  const std::vector<View> back = load_views(vs);
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].events.size(), views[0].events.size());
  for (std::size_t e = 0; e < views[0].events.size(); ++e) {
    EXPECT_EQ(bits(back[0].events[e].when.sec),
              bits(views[0].events[e].when.sec))
        << "event " << e;
    EXPECT_EQ(bits(back[0].events[e].timer_at.sec),
              bits(views[0].events[e].timer_at.sec))
        << "event " << e;
  }

  // Model values are non-negative delays and bias bounds, so -inf has no
  // place to go; the others do.
  Topology topo{4, {{0, 1}, {1, 2}, {2, 3}}};
  SystemModel model(std::move(topo));
  model.set_constraint(make_bounds(0, 1, denorm, DBL_MAX));
  model.set_constraint(make_bias(1, 2, 1e-310));
  model.set_constraint(make_windowed_bias(2, 3, -0.0, inf));
  std::stringstream ms;
  save_model(ms, model);
  const SystemModel loaded = load_model(ms);
  const auto& b =
      dynamic_cast<const BoundsConstraint&>(loaded.constraint(0, 1));
  EXPECT_EQ(bits(b.bounds(0).lo().value()), bits(denorm));
  EXPECT_EQ(bits(b.bounds(0).hi().value()), bits(DBL_MAX));
  EXPECT_EQ(
      bits(dynamic_cast<const BiasConstraint&>(loaded.constraint(1, 2)).bias()),
      bits(1e-310));
  const auto& wb =
      dynamic_cast<const WindowedBiasConstraint&>(loaded.constraint(2, 3));
  EXPECT_EQ(bits(wb.bias()), bits(-0.0));
  EXPECT_EQ(bits(wb.window()), bits(inf));
}

TEST(ViewsIo, FileHelpersRejectMissingPaths) {
  EXPECT_THROW(load_views_file("/nonexistent/dir/views.txt"), Error);
  EXPECT_THROW(load_model_file("/nonexistent/dir/model.txt"), Error);
}

}  // namespace
}  // namespace cs
