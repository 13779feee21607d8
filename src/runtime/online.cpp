#include "runtime/online.hpp"

#include <cmath>
#include <map>

namespace cs {

OnlineViewBuilder::OnlineViewBuilder(std::size_t processors)
    : views_(processors) {
  for (std::size_t p = 0; p < processors; ++p)
    views_[p].pid = static_cast<ProcessorId>(p);
}

void OnlineViewBuilder::start(ProcessorId pid) {
  ViewEvent ev;
  ev.kind = EventKind::kStart;
  ev.when = ClockTime{0.0};
  views_.at(pid).events.push_back(ev);
}

void OnlineViewBuilder::send(ProcessorId pid, ClockTime when, MessageId msg,
                             ProcessorId peer) {
  ViewEvent ev;
  ev.kind = EventKind::kSend;
  ev.when = when;
  ev.msg = msg;
  ev.peer = peer;
  views_.at(pid).events.push_back(ev);
}

void OnlineViewBuilder::receive(ProcessorId pid, ClockTime when,
                                MessageId msg, ProcessorId peer) {
  ViewEvent ev;
  ev.kind = EventKind::kReceive;
  ev.when = when;
  ev.msg = msg;
  ev.peer = peer;
  views_.at(pid).events.push_back(ev);
}

void OnlineViewBuilder::timer_set(ProcessorId pid, ClockTime when,
                                  ClockTime at) {
  ViewEvent ev;
  ev.kind = EventKind::kTimerSet;
  ev.when = when;
  ev.timer_at = at;
  views_.at(pid).events.push_back(ev);
}

void OnlineViewBuilder::timer_fire(ProcessorId pid, ClockTime when,
                                   ClockTime at) {
  ViewEvent ev;
  ev.kind = EventKind::kTimerFire;
  ev.when = when;
  ev.timer_at = at;
  views_.at(pid).events.push_back(ev);
}

void OnlineEstimator::ingest(ProcessorId peer, MessageId msg,
                             ClockTime send_clock, ClockTime recv_clock) {
  if (!std::isfinite(recv_clock.sec - send_clock.sec)) return;
  if (!seen_.insert(msg).second) return;  // redelivery: keep the earliest
  pending_.push_back(Banked{peer, send_clock.sec, recv_clock.sec});
}

std::vector<DirectionExtremes> OnlineEstimator::take_report(
    ClockTime boundary) {
  std::map<ProcessorId, DirectedStats> delta;
  std::size_t kept = 0;
  for (const Banked& banked : pending_) {
    if (banked.send < boundary.sec && banked.recv < boundary.sec)
      delta[banked.peer].add(banked.recv - banked.send);
    else
      pending_[kept++] = banked;
  }
  pending_.resize(kept);

  std::vector<DirectionExtremes> out;
  out.reserve(delta.size());
  for (const auto& [peer, stats] : delta)
    out.push_back(DirectionExtremes{peer, stats.dmin.finite(),
                                    stats.dmax.finite(), stats.count});
  return out;
}

}  // namespace cs
