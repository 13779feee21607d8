// Discrete-event scheduler queue.
//
// Orders pending simulation events by real time with a monotone sequence
// number as tie-break, so simulation runs are fully deterministic given a
// seed — a requirement for reproducible experiment tables and for the
// simulator determinism tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "model/ids.hpp"
#include "sim/event.hpp"

namespace cs {

class EventQueue {
 public:
  void push(RealTime at, SimEvent ev);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Earliest pending real time.  Throws cs::Error when the queue is
  /// empty (previously UB via heap_.top()).
  RealTime next_time() const;

  /// Removes and returns the earliest event.  Throws cs::Error when the
  /// queue is empty.
  SimEvent pop();

 private:
  struct Entry {
    RealTime at;
    std::uint64_t seq;
    SimEvent ev;
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  // A min-heap on (at, seq) under std::push_heap / std::pop_heap, so pop()
  // moves the earliest event out.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_{0};
};

}  // namespace cs
