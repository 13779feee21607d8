// The text grammar under hostile input: the number grammar shared by the
// trace, views and model readers, and the trace reader's totality on
// truncated and corrupted documents — every input loads or raises a
// line-numbered cs::Error, never another exception, a crash or a hang.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "delaymodel/constraint.hpp"
#include "io/views_io.hpp"
#include "trace/trace.hpp"

#ifndef CS_TEST_DATA_DIR
#error "CS_TEST_DATA_DIR must point at tests/data"
#endif

namespace cs {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <class Load>
std::optional<std::string> error_of(Load load) {
  try {
    load();
  } catch (const Error& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

TEST(TraceText, NumberGrammarPinnedInEveryReader) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* token;
    std::optional<double> value;  ///< nullopt: the grammar rejects it
  };
  const Case cases[] = {
      {"0.25", 0.25},
      {"-0", -0.0},
      {"inf", kInf},
      {"-inf", -kInf},
      {"4.9406564584124654e-324", std::numeric_limits<double>::denorm_min()},
      {"1e-310", 1e-310},
      {"1.7976931348623157e+308", DBL_MAX},
      {"+1.5", std::nullopt},
      {"0x1p3", std::nullopt},
      {"nan", std::nullopt},
      {"-nan", std::nullopt},
      {"1e999", std::nullopt},
      {"1e-400", std::nullopt},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.token);
    const std::string tok = c.token;
    const std::string bad = "bad number '" + tok + "'";

    // Trace: the token is a start offset on line 4.
    Trace trace;
    const auto trace_err = error_of([&] {
      std::istringstream is("chronosync-trace v1\nprocessors 1\nseed 0\n"
                            "start 0 " + tok + "\nbegin model\n"
                            "chronosync-model v1\nprocessors 1\nend model\n"
                            "end trace\n");
      trace = load_trace(is);
    });
    // Views: the token is a start event's clock on line 4.
    std::vector<View> views;
    const auto views_err = error_of([&] {
      std::istringstream is(
          "chronosync-views v1\nprocessors 1\nview 0 1\nS " + tok + "\n");
      views = load_views(is);
    });
    // Model: the token is a bias bound on line 3.
    std::optional<SystemModel> model;
    const auto model_err = error_of([&] {
      std::istringstream is("chronosync-model v1\nprocessors 2\n"
                            "link 0 1 bias " + tok + "\n");
      model.emplace(load_model(is));
    });

    if (!c.value) {
      EXPECT_EQ(trace_err, "trace parse error at line 4: " + bad);
      EXPECT_EQ(views_err, "parse error at line 4: " + bad);
      EXPECT_EQ(model_err, "parse error at line 3: " + bad);
      continue;
    }
    ASSERT_FALSE(trace_err) << *trace_err;
    EXPECT_EQ(bits(trace.starts.at(0)), bits(*c.value));
    ASSERT_FALSE(views_err) << *views_err;
    EXPECT_EQ(bits(views.at(0).events.at(0).when.sec), bits(*c.value));
    if (*c.value < 0.0) {
      // Parsed, then refused as a delay assumption: no bias is negative.
      ASSERT_TRUE(model_err);
      EXPECT_EQ(model_err->find("bad number"), std::string::npos)
          << *model_err;
    } else {
      ASSERT_FALSE(model_err) << *model_err;
      EXPECT_EQ(
          bits(dynamic_cast<const BiasConstraint&>(model->constraint(0, 1))
                   .bias()),
          bits(*c.value));
    }
  }
}

TEST(TraceText, IdsPast32BitsRefusedInEveryReader) {
  // A processor id is read whole before it narrows to 32 bits, so 2^32 is
  // refused where it stands instead of loading as processor 0.
  const std::string big = "4294967296";
  const std::string bad = "bad processor id '" + big + "'";
  const auto trace_doc = [](const std::string& lines) {
    return "chronosync-trace v1\nprocessors 2\nseed 0\nbegin model\n"
           "chronosync-model v1\nprocessors 2\nend model\n" +
           lines + "end trace\n";
  };
  struct Case {
    std::string what, doc, error;
    enum { kViews, kModel, kTrace } reader;
  };
  const Case cases[] = {
      {"view pid", "chronosync-views v1\nprocessors 2\nview " + big + " 1\n",
       "parse error at line 3: " + bad, Case::kViews},
      {"event peer",
       "chronosync-views v1\nprocessors 2\nview 0 1\nD 0.5 7 " + big + "\n",
       "parse error at line 4: " + bad, Case::kViews},
      {"link a",
       "chronosync-model v1\nprocessors 2\nlink " + big + " 1 bounds 1 2\n",
       "parse error at line 3: " + bad, Case::kModel},
      {"link b",
       "chronosync-model v1\nprocessors 2\nlink 0 " + big + " bounds 1 2\n",
       "parse error at line 3: " + bad, Case::kModel},
      {"event a", trace_doc("event D 0.5 " + big + " 1 1 0.5\n"),
       "trace parse error at line 8: " + bad, Case::kTrace},
      {"event b", trace_doc("event R 0.5 0 " + big + " 1 0.5\n"),
       "trace parse error at line 8: " + bad, Case::kTrace},
      {"timer pid", trace_doc("event T 0.5 " + big + " 0 0.5\n"),
       "trace parse error at line 8: " + bad, Case::kTrace},
      {"root", trace_doc("root " + big + "\n"),
       "trace parse error at line 8: " + bad, Case::kTrace},
      // Below 2^32, an id past the processor count keeps its range error.
      {"view pid 2^32 - 1",
       "chronosync-views v1\nprocessors 2\nview 4294967295 1\n",
       "parse error at line 3: views must appear in pid order", Case::kViews},
      {"link b 2^32 - 1",
       "chronosync-model v1\nprocessors 2\nlink 0 4294967295 bounds 1 2\n",
       "parse error at line 3: link endpoint 4294967295 out of range "
       "(processors 2)",
       Case::kModel},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto err = error_of([&] {
      std::istringstream is(c.doc);
      switch (c.reader) {
        case Case::kViews:
          (void)load_views(is);
          break;
        case Case::kModel:
          (void)load_model(is);
          break;
        case Case::kTrace:
          (void)load_trace(is);
          break;
      }
    });
    EXPECT_EQ(err, c.error);
  }
}

TEST(TraceText, EventLinesPinnedPerTag) {
  // Every event tag, its fields separated by tabs and double spaces: the
  // values it loads, and the error of a bad number, a 2^32 id, a '+'-signed
  // field and a wrong field count, each on line 8.
  using Kind = TraceEvent::Kind;
  struct Case {
    char tag;
    std::string line;  ///< a well-formed record
    TraceEvent want;
    std::vector<std::pair<std::string, std::string>> errors;  ///< line, what
  };
  auto ev = [](Kind kind, double real) {
    TraceEvent e;
    e.kind = kind;
    e.real = RealTime{real};
    return e;
  };
  auto with = [](TraceEvent e, auto&& set) {
    set(e);
    return e;
  };
  const Case cases[] = {
      {'D', "event\tD  0.5\t0  1\t\t7  0.25",
       with(ev(Kind::kSend, 0.5),
            [](TraceEvent& e) { e.a = 0, e.b = 1, e.msg = 7, e.clock.sec = 0.25; }),
       {{"event\tD  0.5\t0  1\t7  1e999", "bad number '1e999'"},
        {"event\tD  0.5\t4294967296  1\t7  0.25",
         "bad processor id '4294967296'"},
        {"event\tD  0.5\t0  1\t+7  0.25", "bad unsigned integer '+7'"},
        {"event\tD  0.5\t0  1\t7", "wrong field count for event 'D' (got 5 fields)"}}},
      {'R', "event  R\t1.25  1\t0  7\t-0.125",
       with(ev(Kind::kDeliver, 1.25),
            [](TraceEvent& e) { e.a = 1, e.b = 0, e.msg = 7, e.clock.sec = -0.125; }),
       {{"event  R\t1.25  1\t0  7\t0x1p3", "bad number '0x1p3'"},
        {"event  R\t1.25  1\t4294967296  7\t-0.125",
         "bad processor id '4294967296'"},
        {"event  R\t+1.25  1\t0  7\t-0.125", "bad number '+1.25'"},
        {"event  R\t1.25  1\t0  7\t-0.125  9",
         "wrong field count for event 'R' (got 7 fields)"}}},
      {'L', "event\t\tL  2\t0  1  18446744073709551615\tdown",
       with(ev(Kind::kLoss, 2.0),
            [](TraceEvent& e) {
              e.a = 0, e.b = 1, e.msg = 18446744073709551615u,
              e.cause = LossCause::kLinkDown;
            }),
       {{"event\t\tL  2.5.1\t0  1  3\tdown", "bad number '2.5.1'"},
        {"event\t\tL  2\t4294967296  1  3\tdown",
         "bad processor id '4294967296'"},
        {"event\t\tL  2\t0  1  18446744073709551616\tdown",
         "bad unsigned integer '18446744073709551616'"},
        {"event\t\tL  2\t0  1  +3\tdrop", "bad unsigned integer '+3'"},
        {"event\t\tL  2\t0  1  3", "wrong field count for event 'L' (got 5 fields)"}}},
      {'X', "event  X  inf\t1\t0\t12",
       with(ev(Kind::kCrashDrop, std::numeric_limits<double>::infinity()),
            [](TraceEvent& e) { e.a = 1, e.b = 0, e.msg = 12; }),
       {{"event  X  nan\t1\t0\t12", "bad number 'nan'"},
        {"event  X  3\t1\t4294967296\t12", "bad processor id '4294967296'"},
        {"event  X  3\t+1\t0\t12", "bad processor id '+1'"},
        {"event  X  3\t1\t0\t12\t0", "wrong field count for event 'X' (got 6 fields)"}}},
      {'U', "event U\t0.75  1  0\t4  0.0625",
       with(ev(Kind::kDuplicate, 0.75),
            [](TraceEvent& e) { e.a = 1, e.b = 0, e.msg = 4, e.extra = 0.0625; }),
       {{"event U\t0.75  1  0\t4  1e-400", "bad number '1e-400'"},
        {"event U\t0.75  4294967296  0\t4  0.0625",
         "bad processor id '4294967296'"},
        {"event U\t0.75  1  0\t4  +0.0625", "bad number '+0.0625'"},
        {"event U\t0.75  1  0  0.0625", "wrong field count for event 'U' (got 5 fields)"}}},
      {'K', "event\tK  1e-3\t0\t1  5  4.9406564584124654e-324",
       with(ev(Kind::kSpike, 1e-3),
            [](TraceEvent& e) {
              e.a = 0, e.b = 1, e.msg = 5,
              e.extra = std::numeric_limits<double>::denorm_min();
            }),
       {{"event\tK  1e-3\t0\t1  5  -nan", "bad number '-nan'"},
        {"event\tK  1e-3\t0\t4294967296  5  0.5",
         "bad processor id '4294967296'"},
        {"event\tK  1e-3\t0\t1  +5  0.5", "bad unsigned integer '+5'"},
        {"event\tK  1e-3", "wrong field count for event 'K' (got 2 fields)"}}},
      {'T', "event  T\t0.5\t1  0.3\t\t0.8",
       with(ev(Kind::kTimerSet, 0.5),
            [](TraceEvent& e) { e.a = 1, e.clock.sec = 0.3, e.timer_at.sec = 0.8; }),
       {{"event  T\t0.5\t1  0.3\t\t0.8e", "bad number '0.8e'"},
        {"event  T\t0.5\t4294967296  0.3\t\t0.8",
         "bad processor id '4294967296'"},
        {"event  T\t0.5\t1  +0.3\t\t0.8", "bad number '+0.3'"},
        {"event  T\t0.5\t1  0.3", "wrong field count for event 'T' (got 4 fields)"}}},
      {'F', "event\tF  0.875  0\t0.8  0.8",
       with(ev(Kind::kTimerFire, 0.875),
            [](TraceEvent& e) { e.a = 0, e.clock.sec = 0.8, e.timer_at.sec = 0.8; }),
       {{"event\tF  0.875  0\t0.8  .8.", "bad number '.8.'"},
        {"event\tF  0.875  4294967296\t0.8  0.8",
         "bad processor id '4294967296'"},
        {"event\tF  0.875  +0\t0.8  0.8", "bad processor id '+0'"},
        {"event\tF  0.875  0\t0.8  0.8  0.8",
         "wrong field count for event 'F' (got 6 fields)"}}},
      {'Z', "event  Z\t\t3  1\t-inf",
       with(ev(Kind::kTimerSuppressed, 3.0),
            [](TraceEvent& e) {
              e.a = 1, e.timer_at.sec = -std::numeric_limits<double>::infinity();
            }),
       {{"event  Z\t\t3  1\tinfx", "bad number 'infx'"},
        {"event  Z\t\t3  4294967296\t1", "bad processor id '4294967296'"},
        {"event  Z\t\t3  1\t+1", "bad number '+1'"},
        {"event  Z\t\t3  1", "wrong field count for event 'Z' (got 3 fields)"}}},
  };
  auto doc = [](const std::string& line) {
    return "chronosync-trace v1\nprocessors 2\nseed 0\nbegin model\n"
           "chronosync-model v1\nprocessors 2\nend model\n" +
           line + "\nend trace\n";
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("tag ") + c.tag);
    Trace trace;
    const auto err = error_of([&] {
      std::istringstream is(doc(c.line));
      trace = load_trace(is);
    });
    ASSERT_FALSE(err) << *err;
    ASSERT_EQ(trace.events.size(), 1u);
    const TraceEvent& got = trace.events[0];
    EXPECT_EQ(got.kind, c.want.kind);
    EXPECT_EQ(bits(got.real.sec), bits(c.want.real.sec));
    EXPECT_EQ(got.a, c.want.a);
    EXPECT_EQ(got.b, c.want.b);
    EXPECT_EQ(got.msg, c.want.msg);
    EXPECT_EQ(bits(got.clock.sec), bits(c.want.clock.sec));
    EXPECT_EQ(bits(got.timer_at.sec), bits(c.want.timer_at.sec));
    EXPECT_EQ(bits(got.extra), bits(c.want.extra));
    EXPECT_EQ(got.cause, c.want.cause);
    EXPECT_TRUE(got == c.want);

    for (const auto& [line, what] : c.errors) {
      SCOPED_TRACE(line);
      const auto bad = error_of([&] {
        std::istringstream is(doc(line));
        (void)load_trace(is);
      });
      EXPECT_EQ(bad, "trace parse error at line 8: " + what);
    }
  }
}

std::string golden(const std::string& name) {
  std::ifstream is(std::string(CS_TEST_DATA_DIR) + "/" + name);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Feeds `doc` to load_trace and, when it loads, the embedded model to
/// load_model.  Returns a description of any outcome other than a load or
/// a cs::Error (for the trace: one that names its line).
std::optional<std::string> untyped_outcome(const std::string& doc) {
  try {
    std::istringstream is(doc);
    const Trace trace = load_trace(is);
    try {
      (void)trace.model();
    } catch (const Error&) {
    }
  } catch (const Error& e) {
    if (std::string_view(e.what()).starts_with("trace parse error at line "))
      return std::nullopt;
    return std::string("cs::Error without a line: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("untyped exception: ") + e.what();
  }
  return std::nullopt;
}

TEST(TraceText, EveryPrefixAndByteFlipLoadsOrThrowsTyped) {
  std::vector<std::string> failures;
  auto check = [&](const std::string& doc, const std::string& what) {
    if (auto bad = untyped_outcome(doc)) failures.push_back(what + ": " + *bad);
  };

  const std::string clean = golden("golden_clean.trace");
  ASSERT_GT(clean.size(), 10000u);
  for (std::size_t n = 0; n <= clean.size(); ++n)
    check(clean.substr(0, n), "golden_clean byte prefix " + std::to_string(n));

  const char* const others[] = {"golden_faulty.trace", "golden_windowed.trace",
                                "golden_drifting.trace"};
  for (const char* name : others) {
    const std::string doc = golden(name);
    ASSERT_FALSE(doc.empty()) << name;
    std::size_t lines = 0;
    for (std::size_t end = doc.find('\n'); end != std::string::npos;
         end = doc.find('\n', end + 1))
      check(doc.substr(0, end + 1),
            std::string(name) + " line prefix " + std::to_string(++lines));
  }

  // Single-byte mutations: 500 per golden, any byte value but the original.
  std::mt19937_64 rng(0x7EC5);
  for (const char* name : {"golden_clean.trace", "golden_faulty.trace",
                           "golden_windowed.trace", "golden_drifting.trace"}) {
    const std::string doc = golden(name);
    for (int m = 0; m < 500; ++m) {
      std::string mutated = doc;
      const std::size_t pos = rng() % doc.size();
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(doc[pos]) + 1 + rng() % 255);
      check(mutated, std::string(name) + " byte " + std::to_string(pos) +
                         " := " +
                         std::to_string(static_cast<unsigned char>(
                             mutated[pos])));
    }
  }

  EXPECT_TRUE(failures.empty()) << failures.size() << " failures; first: "
                                << (failures.empty() ? "" : failures[0]);
}

}  // namespace
}  // namespace cs
