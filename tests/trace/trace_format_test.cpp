// The trace format: round-trip exactness over every record kind, and
// line-numbered rejection of malformed input.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/views_io.hpp"
#include "support/builders.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace cs {
namespace {

/// A synthetic trace exercising every event kind, every loss cause, and
/// every serialized plan knob away from its default.
Trace exhaustive_trace() {
  Trace t;
  t.seed = 0xDEADBEEFu;
  t.processors = 3;
  t.starts = {0.0, 0.125, 0.0625};
  t.rates = {1.0, 1.0001, 0.9999};

  std::ostringstream model_os;
  save_model(model_os, test::bounded_model(make_ring(3), 0.002, 0.01));
  t.model_text = model_os.str();

  t.plan.options.sync.root = 1;
  t.plan.options.sync.match = MatchPolicy::kDropOrphans;
  t.plan.options.window = Duration{0.75};
  t.plan.options.staleness.carry_forward = true;
  t.plan.options.staleness.widen_per_epoch = 0.005;
  t.plan.options.staleness.max_carry_epochs = 2;
  t.plan.boundaries = {ClockTime{0.5}, ClockTime{1.0}};

  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSend;
  ev.real = RealTime{0.1};
  ev.a = 0;
  ev.b = 1;
  ev.msg = 7;
  ev.clock = ClockTime{0.0999999999999999};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kDeliver;
  ev.real = RealTime{0.105};
  ev.a = 1;
  ev.b = 0;
  ev.msg = 7;
  ev.clock = ClockTime{0.2050000000000001};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kLoss;
  ev.real = RealTime{0.2};
  ev.a = 1;
  ev.b = 2;
  ev.msg = 8;
  ev.cause = LossCause::kFaultDrop;
  t.events.push_back(ev);
  ev.cause = LossCause::kLinkDown;
  ev.msg = 9;
  t.events.push_back(ev);
  ev.cause = LossCause::kSampler;
  ev.msg = 10;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kCrashDrop;
  ev.real = RealTime{0.3};
  ev.a = 2;
  ev.b = 1;
  ev.msg = 11;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kDuplicate;
  ev.real = RealTime{0.31};
  ev.a = 0;
  ev.b = 2;
  ev.msg = 12;
  ev.extra = 0.0123456789012345678;
  t.events.push_back(ev);
  ev.kind = TraceEvent::Kind::kSpike;
  ev.msg = 13;
  ev.extra = 0.025;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kTimerSet;
  ev.real = RealTime{0.4};
  ev.a = 1;
  ev.clock = ClockTime{0.5};
  ev.timer_at = ClockTime{0.55};
  t.events.push_back(ev);
  ev.kind = TraceEvent::Kind::kTimerFire;
  ev.clock = ClockTime{0.55};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kTimerSuppressed;
  ev.real = RealTime{0.6};
  ev.a = 2;
  ev.timer_at = ClockTime{0.7};
  t.events.push_back(ev);

  t.tallies = {{"delivered", 1}, {"lost", 1}, {"fault_dropped", 2}};

  EpochRecord rec;
  rec.boundary = ClockTime{0.5};
  rec.precision = ExtReal{0.001};
  rec.carried_edges = 2;
  rec.observed_directions = 5;
  rec.total_directions = 6;
  rec.pairing.paired = 10;
  rec.pairing.orphan_receives = 1;
  rec.corrections = {0.0, -0.1234567890123456789, 0.5};
  t.recorded.push_back(rec);
  rec.boundary = ClockTime{1.0};
  rec.precision = ExtReal::infinity();
  rec.component_precision = {0.001, 0.002};
  t.recorded.push_back(rec);

  t.counters = {{"fault.dropped", 2}, {"pipeline.epochs", 2}};
  return t;
}

TEST(TraceFormat, RoundTripExact) {
  const Trace t = exhaustive_trace();
  std::stringstream ss;
  save_trace(ss, t);
  const Trace back = load_trace(ss);

  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.processors, t.processors);
  EXPECT_EQ(back.starts, t.starts);
  EXPECT_EQ(back.rates, t.rates);
  EXPECT_EQ(back.model_text, t.model_text);
  EXPECT_EQ(back.plan.options.sync.root, t.plan.options.sync.root);
  EXPECT_EQ(back.plan.options.sync.match, t.plan.options.sync.match);
  EXPECT_EQ(back.plan.options.window.sec, t.plan.options.window.sec);
  EXPECT_EQ(back.plan.options.staleness.carry_forward,
            t.plan.options.staleness.carry_forward);
  EXPECT_EQ(back.plan.options.staleness.widen_per_epoch,
            t.plan.options.staleness.widen_per_epoch);
  EXPECT_EQ(back.plan.options.staleness.max_carry_epochs,
            t.plan.options.staleness.max_carry_epochs);
  ASSERT_EQ(back.plan.boundaries.size(), t.plan.boundaries.size());
  for (std::size_t i = 0; i < t.plan.boundaries.size(); ++i)
    EXPECT_EQ(back.plan.boundaries[i].sec, t.plan.boundaries[i].sec);
  EXPECT_EQ(back.events, t.events);
  EXPECT_EQ(back.tallies, t.tallies);
  ASSERT_EQ(back.recorded.size(), t.recorded.size());
  for (std::size_t i = 0; i < t.recorded.size(); ++i)
    EXPECT_EQ(back.recorded[i], t.recorded[i]) << "outcome " << i;
  EXPECT_EQ(back.counters, t.counters);
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(TraceFormat, SubnormalsRoundTripExactly) {
  // Every double the writer prints reads back bit for bit: subnormals
  // (which std::stod refused as out of range), signed zero, the
  // infinities and the largest finite value.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> extremes = {
      std::numeric_limits<double>::denorm_min(), 1e-310, -0.0, inf, -inf,
      DBL_MAX};
  Trace t = exhaustive_trace();
  t.processors = extremes.size();
  t.starts = extremes;
  t.rates = extremes;
  t.plan.options.window = Duration{1e-310};
  t.plan.options.staleness.widen_per_epoch = -0.0;
  t.plan.boundaries.clear();
  for (const double v : extremes) t.plan.boundaries.push_back(ClockTime{v});
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    t.events[i].real = RealTime{extremes[i % extremes.size()]};
    t.events[i].clock = ClockTime{extremes[(i + 1) % extremes.size()]};
    t.events[i].timer_at = ClockTime{extremes[(i + 2) % extremes.size()]};
    t.events[i].extra = extremes[(i + 3) % extremes.size()];
  }
  for (EpochRecord& rec : t.recorded) {
    rec.boundary = ClockTime{std::numeric_limits<double>::denorm_min()};
    rec.component_precision = extremes;
    rec.corrections = extremes;
  }

  std::stringstream ss;
  save_trace(ss, t);
  const Trace back = load_trace(ss);

  EXPECT_EQ(bits(back.starts), bits(t.starts));
  EXPECT_EQ(bits(back.rates), bits(t.rates));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.plan.options.window.sec),
            std::bit_cast<std::uint64_t>(1e-310));
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(back.plan.options.staleness.widen_per_epoch),
      std::bit_cast<std::uint64_t>(-0.0));
  ASSERT_EQ(back.plan.boundaries.size(), extremes.size());
  for (std::size_t i = 0; i < extremes.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.plan.boundaries[i].sec),
              std::bit_cast<std::uint64_t>(extremes[i]));
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& a = t.events[i];
    const TraceEvent& b = back.events[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(bits({b.real.sec}), bits({a.real.sec}));
    using K = TraceEvent::Kind;
    if (a.kind == K::kSend || a.kind == K::kDeliver ||
        a.kind == K::kTimerSet || a.kind == K::kTimerFire) {
      EXPECT_EQ(bits({b.clock.sec}), bits({a.clock.sec}));
    }
    if (a.kind == K::kTimerSet || a.kind == K::kTimerFire ||
        a.kind == K::kTimerSuppressed) {
      EXPECT_EQ(bits({b.timer_at.sec}), bits({a.timer_at.sec}));
    }
    if (a.kind == K::kDuplicate || a.kind == K::kSpike) {
      EXPECT_EQ(bits({b.extra}), bits({a.extra}));
    }
  }
  ASSERT_EQ(back.recorded.size(), t.recorded.size());
  for (std::size_t k = 0; k < t.recorded.size(); ++k) {
    EXPECT_EQ(bits({back.recorded[k].boundary.sec}),
              bits({std::numeric_limits<double>::denorm_min()}));
    EXPECT_EQ(bits(back.recorded[k].component_precision), bits(extremes));
    EXPECT_EQ(bits(back.recorded[k].corrections), bits(extremes));
  }
}

TEST(TraceFormat, SerializationIsDeterministic) {
  const Trace t = exhaustive_trace();
  std::stringstream a, b;
  save_trace(a, t);
  save_trace(b, t);
  EXPECT_EQ(a.str(), b.str());

  // Save → load → save is a fixed point.
  std::stringstream c(a.str());
  const Trace back = load_trace(c);
  std::stringstream d;
  save_trace(d, back);
  EXPECT_EQ(d.str(), a.str());
}

TEST(TraceFormat, EmbeddedModelParses) {
  const Trace t = exhaustive_trace();
  const SystemModel model = t.model();
  EXPECT_EQ(model.processor_count(), 3u);
  EXPECT_EQ(model.topology().link_count(), 3u);
}

TEST(TraceFormat, LegacyPipelineAndApspLinesReplayBitForBit) {
  // Recorders that offered a choice of epoch driver and APSP algorithm
  // wrote `pipeline incremental` and `apsp ...` plan lines.  The one epoch
  // driver is the incremental one and never read the APSP choice, so such
  // a trace loads with both lines ignored and replays bit for bit.
  for (const char* name : {"golden_faulty.trace", "golden_windowed.trace"}) {
    std::ifstream file(std::string(CS_TEST_DATA_DIR) + "/" + name);
    std::ostringstream disk;
    disk << file.rdbuf();
    std::string doc = disk.str();
    const std::size_t root = doc.find("\nroot ");
    const std::size_t match = doc.find("\nmatch ");
    ASSERT_NE(root, std::string::npos) << name;
    ASSERT_NE(match, std::string::npos) << name;
    doc.insert(match + 1, "apsp floyd-warshall\n");
    doc.insert(root + 1, "pipeline incremental\n");

    std::istringstream is(doc);
    const Trace legacy = load_trace(is);
    std::stringstream resaved;
    save_trace(resaved, legacy);
    EXPECT_EQ(resaved.str(), disk.str()) << name;

    const ReplayResult result = replay(legacy);
    EXPECT_TRUE(result.matches_recording())
        << name << ": "
        << (result.divergences.empty() ? "" : result.divergences.front());
    ASSERT_EQ(result.epochs.size(), legacy.recorded.size()) << name;
    for (std::size_t k = 0; k < result.epochs.size(); ++k)
      EXPECT_EQ(epoch_record(result.epochs[k]), legacy.recorded[k])
          << name << " epoch " << k;
  }
}

std::string trace_error(const std::string& doc) {
  std::istringstream is(doc);
  try {
    load_trace(is);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected load_trace to reject:\n" << doc;
  return "";
}

/// The serialized exhaustive trace with one line rewritten (empty `to`
/// deletes the line).
std::string mutate_line(std::size_t line_no_1based, const std::string& to) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::istringstream in(ss.str());
  std::ostringstream out;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (n == line_no_1based) {
      if (!to.empty()) out << to << '\n';
    } else {
      out << line << '\n';
    }
  }
  return out.str();
}

TEST(TraceFormatErrors, BadHeader) {
  const std::string msg = trace_error("chronosync-trace v9\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, TruncatedStream) {
  // Drop everything from the events on: the terminator goes missing.
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  const std::string full = ss.str();
  const std::string cut = full.substr(0, full.find("event "));
  const std::string msg = trace_error(cut);
  EXPECT_NE(msg.find("end trace"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, BadEventTagNamesLineAndToken) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  const std::size_t pos = doc.find("event D");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 7, "event Q");
  const std::string msg = trace_error(doc);
  EXPECT_NE(msg.find("'Q'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, EventFieldCountMismatch) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::istringstream in(ss.str());
  std::ostringstream out;
  std::string line;
  std::size_t event_line = 0, n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.rfind("event D", 0) == 0 && event_line == 0) {
      event_line = n;
      // Drop the trailing clock field.
      line = line.substr(0, line.rfind(' '));
    }
    out << line << '\n';
  }
  ASSERT_GT(event_line, 0u);
  const std::string msg = trace_error(out.str());
  EXPECT_NE(msg.find("line " + std::to_string(event_line)),
            std::string::npos)
      << msg;
}

TEST(TraceFormatErrors, BadNumberNamesToken) {
  const std::string msg = trace_error(mutate_line(3, "seed banana"));
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'banana'"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, U64OverflowNamesToken) {
  // One past UINT64_MAX is refused, not clamped to UINT64_MAX.
  const std::string msg =
      trace_error(mutate_line(3, "seed 18446744073709551616"));
  EXPECT_NE(msg.find("line 3: bad unsigned integer '18446744073709551616'"),
            std::string::npos)
      << msg;

  std::istringstream max(mutate_line(3, "seed 18446744073709551615"));
  EXPECT_EQ(load_trace(max).seed, std::numeric_limits<std::uint64_t>::max());
}

TEST(TraceFormatErrors, CycleMeanPlanLineNamesTheReRecord) {
  // Traces recorded while the plan still chose a cycle-mean algorithm carry
  // corrections of the retired Karp + Bellman–Ford path; they are refused
  // with the line and record named, never replayed into a divergence.
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  EXPECT_EQ(doc.find("cycle-mean"), std::string::npos);
  const std::size_t pos = doc.find("match ");
  ASSERT_NE(pos, std::string::npos);
  doc.insert(pos, "cycle-mean karp\n");
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(doc.begin(), doc.begin() + pos, '\n'));
  const std::string msg = trace_error(doc);
  EXPECT_NE(msg.find("line " + std::to_string(line) + ":"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'cycle-mean karp'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("re-recorded"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, RebuildPipelineLineNamesTheReRecord) {
  // Traces recorded with the retired from-scratch epoch driver differ from
  // the one driver in the last ulps; they are refused with the line and
  // record named, never replayed into a divergence.
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  EXPECT_EQ(doc.find("\npipeline "), std::string::npos);
  ASSERT_NE(doc.find("\nroot "), std::string::npos);
  const std::size_t pos = doc.find("\nroot ") + 1;
  doc.insert(pos, "pipeline rebuild\n");
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(doc.begin(), doc.begin() + pos, '\n'));
  const std::string msg = trace_error(doc);
  EXPECT_NE(msg.find("line " + std::to_string(line) + ":"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'pipeline rebuild'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("re-recorded"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, ProcessorCountOverLimitNamesLineAndToken) {
  // The header's count sizes per-processor state before any per-processor
  // line arrives: past the documented limit it is refused, not allocated.
  const std::string msg =
      trace_error(mutate_line(2, "processors 99999999999999"));
  EXPECT_NE(msg.find("line 2: count '99999999999999' exceeds the limit " +
                     std::to_string(kMaxProcessors)),
            std::string::npos)
      << msg;

  // The limit itself is accepted (this trace then fails on its
  // three-processor outcome rows instead).
  const std::string at_limit = trace_error(
      mutate_line(2, "processors " + std::to_string(kMaxProcessors)));
  EXPECT_EQ(at_limit.find("exceeds the limit"), std::string::npos)
      << at_limit;
}

TEST(TraceFormatErrors, MissingModelRejected) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  const std::size_t from = doc.find("begin model");
  const std::size_t to = doc.find("end model");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  doc.erase(from, to + 10 - from);
  EXPECT_THROW({
    std::istringstream is(doc);
    load_trace(is);
  }, Error);
}

TEST(TraceWriterApi, FinishTwiceThrows) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.finish();
  EXPECT_THROW(writer.finish(), Error);
}

}  // namespace
}  // namespace cs
