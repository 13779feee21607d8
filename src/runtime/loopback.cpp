#include "runtime/loopback.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/error.hpp"

namespace cs {

LoopbackTransport::LoopbackTransport(const SystemModel& model,
                                     const TimeBase& time,
                                     VirtualScheduler* sched,
                                     LoopbackOptions options)
    : model_(&model), time_(&time), sched_(sched), options_(options) {
  if (time.is_virtual() != (sched != nullptr))
    throw Error(
        "LoopbackTransport: virtual time requires a VirtualScheduler and "
        "wall time forbids one");
  if (options_.drop_probability < 0.0 || options_.drop_probability >= 1.0)
    throw Error("LoopbackTransport: drop_probability must be in [0, 1)");

  const Rng master(options_.seed);
  const auto& topo = model.topology();
  links_.reserve(topo.links.size());
  for (std::size_t i = 0; i < topo.links.size(); ++i) {
    const auto [a, b] = topo.links[i];
    Rng setup = master.split(0x5A00000u + i);
    Link link{make_admissible_sampler(model.constraint(a, b),
                                      options_.delay_scale, setup),
              master.split(2 * i), master.split(2 * i + 1)};
    links_.push_back(std::move(link));
  }
  sinks_.resize(model.processor_count());
}

LoopbackTransport::~LoopbackTransport() { stop(); }

void LoopbackTransport::open(ProcessorId pid, DeliverFn sink) {
  if (pid >= sinks_.size())
    throw Error("LoopbackTransport: endpoint id out of range");
  sinks_[pid] = std::move(sink);
}

void LoopbackTransport::start() {
  if (sched_ != nullptr || running_) return;
  running_ = true;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void LoopbackTransport::stop() {
  if (sched_ != nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool LoopbackTransport::send(WireMessage msg) {
  // The model's direction slot is 2·link + side, in the topology link order
  // links_ was built in.
  const std::size_t dir = model_->direction(msg.from, msg.to);
  if (dir == SystemModel::kNoDirection)
    throw Error("LoopbackTransport: send across a non-link pair " +
                std::to_string(msg.from) + "-" + std::to_string(msg.to));
  Link& link = links_[dir / 2];

  if (options_.drop_probability > 0.0 &&
      link.drop_rng.uniform01() < options_.drop_probability) {
    ++dropped_;
    return false;
  }

  const bool a_to_b = msg.from < msg.to;
  const RealTime now = time_->now();
  const double delay = link.sampler->sample(a_to_b, now, link.delay_rng);
  if (!std::isfinite(delay) || delay < 0.0) {
    // A lossy sampler's +inf is modeled transit loss; treat like a drop.
    ++dropped_;
    return false;
  }

  const RealTime due = now + Duration{delay};
  if (sched_ != nullptr) {
    sched_->schedule_delivery(due, std::move(msg));
    return true;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    heap_.push_back(Pending{due.sec, seq_++, std::move(msg)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  cv_.notify_all();
  return true;
}

void LoopbackTransport::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!running_) return;
    if (heap_.empty()) {
      cv_.wait(lock, [this] { return !running_ || !heap_.empty(); });
      continue;
    }
    const double due = heap_.front().due;
    const double now = time_->now().sec;
    if (now < due) {
      cv_.wait_for(lock, std::chrono::duration<double>(due - now));
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Pending next = std::move(heap_.back());
    heap_.pop_back();
    lock.unlock();
    if (const DeliverFn& sink = sinks_[next.msg.to])
      sink(std::move(next.msg));
    lock.lock();
  }
}

}  // namespace cs
