// Simulator-internal events and the protocol message type.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "model/ids.hpp"

namespace cs {

/// The doubles of a Payload: immutable once built and shared by reference.
/// Building one from a vector or a braced list costs one allocation (the
/// refcount lives in the same block); copying one bumps an atomic refcount,
/// so every hop of a §7 flood — and every hand-off to a transport thread —
/// carries the sender's buffer, never a copy of it.  Readers get a const
/// contiguous range; == compares contents.
class PayloadData {
 public:
  PayloadData() = default;
  PayloadData(std::initializer_list<double> values)
      : PayloadData(values.begin(), values.size()) {}
  PayloadData(const std::vector<double>& values)
      : PayloadData(values.data(), values.size()) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double& operator[](std::size_t i) const { return buf_[i]; }
  const double* begin() const { return buf_.get(); }
  const double* end() const { return buf_.get() + size_; }

  friend bool operator==(const PayloadData& a, const PayloadData& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  PayloadData(const double* values, std::size_t n) : size_(n) {
    if (n == 0) return;
    std::shared_ptr<double[]> buf = std::make_shared_for_overwrite<double[]>(n);
    std::copy_n(values, n, buf.get());
    buf_ = std::move(buf);
  }

  std::shared_ptr<const double[]> buf_;
  std::size_t size_{0};
};

/// Application payload carried by protocol messages.  A small tag plus
/// shared doubles covers every protocol in this library (probe ids,
/// correction values, serialized mls tables) without a serialization layer.
struct Payload {
  std::uint32_t tag{0};
  PayloadData data;

  bool operator==(const Payload&) const = default;
};

struct Message {
  MessageId id{0};
  ProcessorId from{0};
  ProcessorId to{0};
  Payload payload;
};

/// Scheduler event.  Start events kick off each processor at its (real)
/// start time; Delivery hands a message to the destination automaton; Timer
/// fires a timer previously set by the automaton.
struct SimEvent {
  enum class Kind : std::uint8_t { kStart, kDelivery, kTimer } kind{};
  ProcessorId processor{0};
  Message message;      ///< kDelivery only
  ClockTime timer_at{};  ///< kTimer only (destination clock time)
};

}  // namespace cs
