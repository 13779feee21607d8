#include "support/gossip.hpp"

namespace cs {
namespace {

class GossipAutomaton final : public Automaton {
 public:
  GossipAutomaton(ProcessorId self, GossipParams params)
      : params_(params), rng_(params.seed ^ (0x9e3779b97f4a7c15ULL * (self + 1))) {}

  void on_start(Context& ctx) override {
    if (params_.rounds > 0) ctx.set_timer(ctx.now() + params_.warmup);
  }

  void on_timer(Context& ctx, ClockTime) override {
    const auto neighbors = ctx.neighbors();
    if (!neighbors.empty()) {
      const auto pick = neighbors[rng_.uniform_int(neighbors.size())];
      Payload probe;
      probe.tag = kTagGossipProbe;
      probe.data = {ctx.now().sec};
      ctx.send(pick, probe);
    }
    if (++sent_ < params_.rounds) ctx.set_timer(ctx.now() + params_.period);
  }

  void on_message(Context& ctx, const Message& msg) override {
    if (msg.payload.tag == kTagGossipProbe) {
      Payload reply;
      reply.tag = kTagGossipReply;
      reply.data = {ctx.now().sec};
      ctx.send(msg.from, reply);
    }
  }

 private:
  GossipParams params_;
  Rng rng_;
  std::size_t sent_{0};
};

}  // namespace

AutomatonFactory make_gossip(GossipParams params) {
  return [params](ProcessorId self) {
    return std::make_unique<GossipAutomaton>(self, params);
  };
}

}  // namespace cs
