// Flat open-addressing index from 64-bit keys to 32-bit values.
//
// One power-of-two slot table with linear probing and no deletion, sized
// up front for at most half load.  Message pairing (model/pairing.cpp)
// indexes sends by message id with it, and SystemModel indexes link
// directions by (p, q).  A key's home slot is the top bits of its product
// with 2^64/φ (Fibonacci hashing): one multiply, and every key bit reaches
// the slot number, so ids that differ only in their high bits
// (sender-tagged sequence numbers) or share many low zero bits still spread
// over the table, and sequential ids land evenly apart.  Every u64 is a
// valid key, 0 and 2^64 - 1 included: an empty slot is marked by its
// value, never by a reserved key.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace cs {

class FlatIndex {
 public:
  /// What find() returns for a missing key; not a storable value.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Table for up to `capacity` keys (capacity < kAbsent).
  explicit FlatIndex(std::size_t capacity) {
    if (capacity >= kAbsent) fail("FlatIndex: capacity out of range");
    slots_.assign(std::bit_ceil(2 * capacity + 2), Slot{});
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    capacity_ = capacity;
  }

  /// The value stored under `key`, or kAbsent.
  std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == kAbsent || s.key == key) return s.value;
    }
  }

  /// Stores `value` (< kAbsent) under `key` unless the key is present.
  /// Returns the value already stored, or kAbsent when it inserted.
  std::uint32_t insert(std::uint64_t key, std::uint32_t value) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.value == kAbsent) {
        if (size_ == capacity_) fail("FlatIndex: more keys than capacity");
        s = Slot{key, value};
        ++size_;
        return kAbsent;
      }
      if (s.key == key) return s.value;
    }
  }

 private:
  struct Slot {
    std::uint64_t key{0};
    std::uint32_t value{kAbsent};
  };

  std::size_t home(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  int shift_{64};
  std::size_t capacity_{0};
  std::size_t size_{0};
};

}  // namespace cs
