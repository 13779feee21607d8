#include "support/flood.hpp"

#include <set>

namespace cs {
namespace {

class FloodAutomaton final : public Automaton {
 public:
  explicit FloodAutomaton(FloodParams params) : params_(params) {}

  void on_start(Context& ctx) override {
    ctx.set_timer(ctx.now() + params_.warmup);
  }

  void on_timer(Context& ctx, ClockTime) override {
    // Token payload: [origin, ttl].
    forward(ctx, ctx.self(), params_.ttl, /*except=*/ctx.self());
    seen_.insert(ctx.self());
  }

  void on_message(Context& ctx, const Message& msg) override {
    if (msg.payload.tag != kTagFlood || msg.payload.data.size() != 2) return;
    const auto origin = static_cast<ProcessorId>(msg.payload.data[0]);
    const auto ttl = static_cast<std::size_t>(msg.payload.data[1]);
    if (!seen_.insert(origin).second) return;  // already forwarded
    if (ttl > 0) forward(ctx, origin, ttl - 1, msg.from);
  }

 private:
  void forward(Context& ctx, ProcessorId origin, std::size_t ttl,
               ProcessorId except) {
    Payload p;
    p.tag = kTagFlood;
    p.data = {static_cast<double>(origin), static_cast<double>(ttl)};
    for (ProcessorId nb : ctx.neighbors())
      if (nb != except) ctx.send(nb, p);
  }

  FloodParams params_;
  std::set<ProcessorId> seen_;
};

}  // namespace

AutomatonFactory make_flood(FloodParams params) {
  return [params](ProcessorId) {
    return std::make_unique<FloodAutomaton>(params);
  };
}

}  // namespace cs
