// Payload integrity through the simulator: what an automaton sends is what
// the peer's on_message receives, verbatim.
#include <gtest/gtest.h>

#include "support/builders.hpp"

namespace cs {
namespace {

struct Received {
  std::vector<Payload> payloads;
};

class EchoProbe final : public Automaton {
 public:
  EchoProbe(ProcessorId self, Received* sink) : self_(self), sink_(sink) {}

  void on_start(Context& ctx) override {
    if (self_ != 0) return;
    Payload p;
    p.tag = 0xBEEF;
    p.data = {1.5, -2.25, 1e-9, 0.0};
    ctx.send(1, p);
  }

  void on_message(Context& ctx, const Message& msg) override {
    sink_->payloads.push_back(msg.payload);
    if (msg.payload.tag == 0xBEEF) {
      Payload back;
      back.tag = 0xCAFE;
      std::vector<double> echo(msg.payload.data.begin(),
                               msg.payload.data.end());
      echo.push_back(static_cast<double>(msg.from));
      back.data = echo;
      ctx.send(msg.from, back);
    }
  }

  void on_timer(Context&, ClockTime) override {}

 private:
  ProcessorId self_;
  Received* sink_;
};

TEST(Payload, RoundTripsThroughTheSimulator) {
  SystemModel model = test::bounded_model(make_line(2), 0.001, 0.002);
  Received sink;
  SimOptions opts;
  opts.start_offsets.assign(2, Duration{0.0});
  opts.seed = 1;
  const AutomatonFactory factory = [&sink](ProcessorId p) {
    return std::make_unique<EchoProbe>(p, &sink);
  };
  const SimResult r = simulate(model, factory, opts);
  EXPECT_EQ(r.delivered_messages, 2u);
  ASSERT_EQ(sink.payloads.size(), 2u);

  const Payload& probe = sink.payloads[0];
  EXPECT_EQ(probe.tag, 0xBEEFu);
  ASSERT_EQ(probe.data.size(), 4u);
  EXPECT_DOUBLE_EQ(probe.data[0], 1.5);
  EXPECT_DOUBLE_EQ(probe.data[1], -2.25);
  EXPECT_DOUBLE_EQ(probe.data[2], 1e-9);

  const Payload& echo = sink.payloads[1];
  EXPECT_EQ(echo.tag, 0xCAFEu);
  ASSERT_EQ(echo.data.size(), 5u);
  EXPECT_DOUBLE_EQ(echo.data[4], 0.0);  // echoed sender id
}

TEST(Payload, CopiesShareOneBuffer) {
  Payload original;
  original.tag = 7;
  original.data = std::vector<double>{1.5, -2.25, 3.0};

  // A copy is a refcount bump: it reads the very same doubles.
  const Payload copy = original;
  EXPECT_EQ(copy.data.begin(), original.data.begin());
  EXPECT_EQ(copy, original);

  // == compares contents, not buffers.
  Payload rebuilt;
  rebuilt.tag = 7;
  rebuilt.data = {1.5, -2.25, 3.0};
  EXPECT_NE(rebuilt.data.begin(), original.data.begin());
  EXPECT_EQ(rebuilt, original);
  rebuilt.data = {1.5, -2.25, 4.0};
  EXPECT_NE(rebuilt, original);

  // An echo built from a received payload gets its own buffer and leaves
  // the original as it was.
  std::vector<double> echo(original.data.begin(), original.data.end());
  echo.push_back(9.0);
  Payload back;
  back.data = echo;
  EXPECT_NE(back.data.begin(), original.data.begin());
  ASSERT_EQ(back.data.size(), 4u);
  EXPECT_EQ(back.data[3], 9.0);
  ASSERT_EQ(original.data.size(), 3u);
  EXPECT_EQ(original.data[2], 3.0);
  EXPECT_EQ(copy, original);

  EXPECT_TRUE(Payload{}.data.empty());
  EXPECT_EQ(Payload{}, Payload{});
}

TEST(Payload, NeighborsAreSortedAndCorrect) {
  SystemModel model = test::bounded_model(make_star(4), 0.001, 0.002);
  std::vector<std::vector<ProcessorId>> seen(4);
  struct Snoop final : Automaton {
    std::vector<ProcessorId>* out;
    explicit Snoop(std::vector<ProcessorId>* o) : out(o) {}
    void on_start(Context& ctx) override {
      out->assign(ctx.neighbors().begin(), ctx.neighbors().end());
    }
    void on_message(Context&, const Message&) override {}
    void on_timer(Context&, ClockTime) override {}
  };
  SimOptions opts;
  opts.start_offsets.assign(4, Duration{0.0});
  const AutomatonFactory factory = [&seen](ProcessorId p) {
    return std::make_unique<Snoop>(&seen[p]);
  };
  simulate(model, factory, opts);
  EXPECT_EQ(seen[0], (std::vector<ProcessorId>{1, 2, 3}));
  for (ProcessorId p = 1; p < 4; ++p)
    EXPECT_EQ(seen[p], std::vector<ProcessorId>{0});
}

}  // namespace
}  // namespace cs
