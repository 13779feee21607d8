#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.hpp"

namespace cs {

void EventQueue::push(RealTime at, SimEvent ev) {
  heap_.push_back(Entry{at, next_seq_++, std::move(ev)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

RealTime EventQueue::next_time() const {
  if (heap_.empty()) throw Error("EventQueue::next_time on an empty queue");
  return heap_.front().at;
}

SimEvent EventQueue::pop() {
  if (heap_.empty()) throw Error("EventQueue::pop on an empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  SimEvent ev = std::move(heap_.back().ev);
  heap_.pop_back();
  return ev;
}

}  // namespace cs
