// Golden traces: checked-in recordings that every build must replay
// bit-identically.  A failure here means the pipeline's numeric behavior
// changed — either an intentional algorithm change (regenerate via
// tests/data/regen.sh and audit the diff) or a regression.
//
// Replaying a golden uses only the parser and IEEE arithmetic — no
// simulator, no RNG, no libm-dependent sampling — so these are stable
// across platforms and toolchains.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "trace/replay.hpp"
#include "trace/trace.hpp"

#ifndef CS_TEST_DATA_DIR
#error "CS_TEST_DATA_DIR must point at tests/data"
#endif

namespace cs {
namespace {

std::string data_path(const std::string& name) {
  return std::string(CS_TEST_DATA_DIR) + "/" + name;
}

class GoldenTrace : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTrace, ReplaysBitIdentically) {
  const Trace trace = load_trace_file(data_path(GetParam()));
  ASSERT_FALSE(trace.recorded.empty()) << "golden has no recorded outcomes";
  const ReplayResult result = replay(trace);
  EXPECT_TRUE(result.matches_recording()) << [&] {
    std::string all;
    for (const std::string& d : result.divergences) all += d + "\n";
    return all;
  }();
}

TEST_P(GoldenTrace, SerializationRoundTripIsStable) {
  const Trace trace = load_trace_file(data_path(GetParam()));
  std::stringstream ss;
  save_trace(ss, trace);
  const Trace back = load_trace(ss);
  EXPECT_TRUE(diff_traces(trace, back).empty());

  // Byte-stable too: the on-disk golden is exactly what save_trace emits
  // (so regenerating without a pipeline change produces no diff noise).
  std::ifstream file(data_path(GetParam()));
  std::ostringstream disk;
  disk << file.rdbuf();
  EXPECT_EQ(ss.str(), disk.str());
}

TEST_P(GoldenTrace, RerecordingIsIdempotent) {
  const Trace trace = load_trace_file(data_path(GetParam()));
  const ReplayResult result = replay(trace);
  EXPECT_TRUE(diff_traces(trace, rerecorded(trace, result)).empty());
}

INSTANTIATE_TEST_SUITE_P(Goldens, GoldenTrace,
                         ::testing::Values("golden_clean.trace",
                                           "golden_faulty.trace",
                                           "golden_windowed.trace",
                                           "golden_drifting.trace"),
                         [](const auto& info) {
                           std::string name = info.param;
                           return name.substr(7, name.find('.') - 7);
                         });

// The drifting golden pins the non-unit `rate` header lines (docs/DRIFT.md)
// through the full round trip: they must be present, inside the declared
// 150 ppm band, and preserved bit-for-bit by replay + rerecord.
TEST(GoldenDriftingTrace, NonUnitRatesSurviveTheRoundTrip) {
  const Trace trace = load_trace_file(data_path("golden_drifting.trace"));
  ASSERT_EQ(trace.rates.size(), trace.processors);
  bool any_non_unit = false;
  for (const double r : trace.rates) {
    EXPECT_GE(r, 1.0 - 150e-6);
    EXPECT_LE(r, 1.0 + 150e-6);
    if (r != 1.0) any_non_unit = true;
  }
  EXPECT_TRUE(any_non_unit) << "golden_drifting.trace has all-unit rates";

  const ReplayResult result = replay(trace);
  const Trace back = rerecorded(trace, result);
  EXPECT_EQ(back.rates, trace.rates);
  EXPECT_TRUE(diff_traces(trace, back).empty());
}

// replay() always attaches a metrics sink to the epoch driver; the goldens
// must come out of the driver bit for bit without one too (results never
// depend on whether instrumentation is attached).
TEST(GoldenTraceSinkIdentity, EpochDriverWithoutMetricsReproducesTheRecording) {
  for (const char* name : {"golden_clean.trace", "golden_faulty.trace",
                           "golden_windowed.trace", "golden_drifting.trace"}) {
    const Trace trace = load_trace_file(data_path(name));
    ASSERT_FALSE(trace.recorded.empty()) << name;
    EpochOptions options = trace.plan.options;
    options.sync.metrics = nullptr;
    const std::vector<EpochOutcome> epochs = epochal_synchronize_incremental(
        trace.model(), views_from_trace(trace), trace.plan.boundaries,
        options);
    ASSERT_EQ(epochs.size(), trace.recorded.size()) << name;
    for (std::size_t k = 0; k < epochs.size(); ++k)
      EXPECT_EQ(epoch_record(epochs[k]), trace.recorded[k])
          << name << " epoch " << k;
  }
}

}  // namespace
}  // namespace cs
