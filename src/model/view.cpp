#include "model/view.hpp"

namespace cs {

std::vector<ViewEvent> View::sends() const {
  std::vector<ViewEvent> out;
  for (const ViewEvent& e : events)
    if (e.kind == EventKind::kSend) out.push_back(e);
  return out;
}

std::vector<ViewEvent> View::receives() const {
  std::vector<ViewEvent> out;
  for (const ViewEvent& e : events)
    if (e.kind == EventKind::kReceive) out.push_back(e);
  return out;
}

View View::prefix(ClockTime cutoff) const {
  View out;
  out.pid = pid;
  for (const ViewEvent& e : events) {
    if (e.kind == EventKind::kStart || e.when < cutoff)
      out.events.push_back(e);
  }
  return out;
}

View View::window(ClockTime from, ClockTime until) const {
  View out;
  out.pid = pid;
  for (const ViewEvent& e : events) {
    if (e.kind == EventKind::kStart ||
        (from <= e.when && e.when < until))
      out.events.push_back(e);
  }
  return out;
}

bool View::in_clock_order() const {
  const ViewEvent* last = nullptr;
  for (const ViewEvent& e : events) {
    if (e.kind == EventKind::kStart) continue;
    if (last != nullptr && !(last->when <= e.when)) return false;
    last = &e;
  }
  return true;
}

}  // namespace cs
