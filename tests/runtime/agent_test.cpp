// SyncAgent's control frames — reports and corrections — are read field by
// field before any value becomes an integer.  A frame with a NaN, negative,
// fractional, huge or out-of-range field, with counts that do not account
// for its doubles, or with poisoned extremes (non-finite, d̃min > d̃max, no
// observation) is dropped whole: not absorbed, not forwarded, not acked.
// Over UDP any local process can send such a frame.  And a model whose
// m̃ls needs the observation series is refused before any agent runs.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "delaymodel/windowed_bias.hpp"
#include "runtime/agent.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

/// Records every send; timers are ignored (these tests feed messages in
/// directly and never fire one).
class RecordingContext final : public Context {
 public:
  RecordingContext(ProcessorId self, std::vector<ProcessorId> neighbors)
      : self_(self), neighbors_(std::move(neighbors)) {}

  ProcessorId self() const override { return self_; }
  ClockTime now() const override { return ClockTime{0.0}; }
  std::span<const ProcessorId> neighbors() const override {
    return neighbors_;
  }
  void send(ProcessorId to, Payload payload) override {
    sent.emplace_back(to, std::move(payload));
  }
  void set_timer(ClockTime) override {}

  std::vector<std::pair<ProcessorId, Payload>> sent;

 private:
  ProcessorId self_;
  std::vector<ProcessorId> neighbors_;
};

/// Complete-4, leader 0, two epochs; one fresh agent per frame, so the
/// flood dedup of one row never hides another.
class LiveControlFrames : public ::testing::Test {
 protected:
  LiveControlFrames()
      : model_(test::bounded_model(make_complete(4), 0.001, 0.05)),
        params_(make_params()), results_(4, params_),
        factory_(make_sync_agents(&model_, params_, &results_)) {}

  static SyncAgentParams make_params() {
    SyncAgentParams params;
    params.epochs = 2;
    return params;
  }

  /// Delivers `data` with `tag` from `from` to a fresh agent `self`;
  /// returns what the agent sent in response.
  std::vector<std::pair<ProcessorId, Payload>> deliver(
      ProcessorId self, ProcessorId from, std::uint32_t tag,
      std::vector<double> data) {
    std::vector<ProcessorId> neighbors;
    for (ProcessorId p = 0; p < 4; ++p)
      if (p != self) neighbors.push_back(p);
    RecordingContext ctx(self, std::move(neighbors));
    const std::unique_ptr<Automaton> agent = factory_(self);
    agent->on_start(ctx);
    ctx.sent.clear();
    agent->on_message(ctx, Message{next_id_++, from, self,
                                   Payload{tag, std::move(data)}});
    return std::move(ctx.sent);
  }

  SystemModel model_;
  SyncAgentParams params_;
  LiveResults results_;
  AutomatonFactory factory_;
  MessageId next_id_{1};
};

// Origin 2's epoch-1 report: one direction (3 -> 2) with one observation.
// Integer fields sit at 0 (origin), 1 (epoch), 2 (ndirs), 3 (peer) and
// 6 (count); the extremes d̃min and d̃max at 4 and 5.
const std::vector<double> kReport = {2, 1, 1, 3, 0.01, 0.01, 1};
const std::vector<std::size_t> kReportFields = {0, 1, 2, 3, 6};

// Epoch-1 corrections for four agents; integer fields at 0 (epoch) and
// 3 (count).
const std::vector<double> kCorrections = {1, 0, 0.01, 4, 0, 0.1, 0.2, 0.3};
const std::vector<std::size_t> kCorrectionFields = {0, 3};

const std::vector<double> kHostile = {
    std::numeric_limits<double>::quiet_NaN(), -1.0, 2.5, 1e300};

std::string row(std::size_t field, double value) {
  std::ostringstream os;
  os << "field " << field << " = " << value;
  return os.str();
}

TEST_F(LiveControlFrames, WellFormedFramesAreForwardedAbsorbedAndAcked) {
  // The baseline every malformed row below is measured against.
  const auto forwarded = deliver(1, 2, kTagLiveReport, kReport);
  ASSERT_EQ(forwarded.size(), 2u);  // every neighbor but the sender
  EXPECT_EQ(forwarded[0].first, 0u);
  EXPECT_EQ(forwarded[1].first, 3u);
  EXPECT_EQ(forwarded[0].second.data, PayloadData(kReport));

  EXPECT_TRUE(deliver(0, 2, kTagLiveReport, kReport).empty());
  EXPECT_EQ(results_.epoch(1).reports_absorbed, 1u);

  EXPECT_EQ(deliver(1, 0, kTagLiveCorrections, kCorrections).size(), 2u);
  EXPECT_EQ(results_.epoch(1).acks, 1u);
}

TEST_F(LiveControlFrames, HostileReportFieldIsNeitherForwardedNorAbsorbed) {
  for (const std::size_t field : kReportFields) {
    for (const double bad : kHostile) {
      std::vector<double> frame = kReport;
      frame[field] = bad;
      EXPECT_TRUE(deliver(1, 2, kTagLiveReport, frame).empty())
          << "forwarded with " << row(field, bad);
      EXPECT_TRUE(deliver(0, 2, kTagLiveReport, frame).empty());
      EXPECT_EQ(results_.epoch(1).reports_absorbed, 0u)
          << "absorbed with " << row(field, bad);
    }
  }
}

TEST_F(LiveControlFrames, OutOfRangeReportIsNeitherForwardedNorAbsorbed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::size_t, double>> rows = {
      {0, 4.0},   // origin == n
      {1, 0.0},   // epochs are 1-based
      {1, 3.0},   // past the last epoch
      {2, 2.0},   // more directions than the payload holds
      {3, 4.0},   // peer == n
      {4, nan},   // poisoned extremes: NaN,
      {5, nan},
      {4, -inf},  // infinite,
      {5, inf},
      {4, 0.5},   // d̃min > d̃max,
      {6, 0.0},   // and a direction with no observation
  };
  for (const auto& [field, value] : rows) {
    std::vector<double> frame = kReport;
    frame[field] = value;
    EXPECT_TRUE(deliver(1, 2, kTagLiveReport, frame).empty())
        << "forwarded with " << row(field, value);
    deliver(0, 2, kTagLiveReport, frame);
  }
  std::vector<double> trailing = kReport;
  trailing.push_back(0.5);  // a double no count accounts for
  EXPECT_TRUE(deliver(1, 2, kTagLiveReport, trailing).empty());
  deliver(0, 2, kTagLiveReport, trailing);
  const std::vector<double> torn(kReport.begin(), kReport.end() - 1);
  EXPECT_TRUE(deliver(1, 2, kTagLiveReport, torn).empty());
  deliver(0, 2, kTagLiveReport, torn);
  EXPECT_EQ(results_.epoch(1).reports_absorbed, 0u);
}

TEST_F(LiveControlFrames, HostileCorrectionsFieldIsNeitherForwardedNorAcked) {
  for (const std::size_t field : kCorrectionFields) {
    std::vector<double> values = kHostile;
    values.push_back(field == 0 ? 3.0 : 5.0);  // past epochs / payload
    for (const double bad : values) {
      std::vector<double> frame = kCorrections;
      frame[field] = bad;
      EXPECT_TRUE(deliver(1, 0, kTagLiveCorrections, frame).empty())
          << "forwarded with " << row(field, bad);
    }
  }
  EXPECT_EQ(results_.epoch(1).acks, 0u);
}

TEST(SyncAgentSetup, WindowedBiasLinkIsRefused) {
  // An extremes report cannot carry the series a windowed-bias m̃ls needs.
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  model.set_constraint(make_windowed_bias(1, 3, 0.01, 0.5));
  SyncAgentParams params;
  LiveResults results(4, params);
  try {
    make_sync_agents(&model, params, &results);
    ADD_FAILURE() << "a windowed-bias model was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("link 1-3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cs
