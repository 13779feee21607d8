// 24-bit compressed timestamps with windowed reconstruction.
//
// The TimeSync idea: a clock stamp does not need all 64 bits on the wire
// when sender and receiver are already coarsely synchronized.  Quantize
// clock seconds to 1 µs ticks, truncate to the low 24 bits (3 bytes), and
// let the receiver rebuild the full value against its own local reference:
// of all tick values congruent to the truncated stamp mod 2^24, exactly one
// lies within ±2^23 ticks (±8.39 s) of the reference — that one is the
// answer whenever the true stamp is within half a window of the reference.
//
// Failure mode (documented in docs/NET.md): if sender and receiver clocks
// disagree by MORE than half a window (2^23 µs ≈ 8.39 s), reconstruction
// silently lands a whole window (16.78 s) away — truncation cannot detect a
// full wrap.  The guard band is the mitigation for the *near-miss* case:
// a reconstruction landing within `guard` ticks of the ±2^23 edge is
// flagged ambiguous (the true value could plausibly be on the other side of
// the wrap), and callers drop the sample and count it
// (runtime.net.reconstruct_ambiguous) instead of banking a possibly
// window-shifted delay.  Full wraps are excluded by protocol: the Hello
// handshake carries a full-width stamp and refuses sessions whose clocks
// disagree by more than a quarter window (hello_in_window below).
#pragma once

#include <cstdint>

namespace cs::net {

/// One tick = 1 µs; 24 bits of ticks = a 16.777216 s window.
inline constexpr double kTickSeconds = 1e-6;
inline constexpr std::uint32_t kTimestampBits = 24;
inline constexpr std::uint32_t kTimestampMask = (1u << kTimestampBits) - 1;
inline constexpr std::int64_t kTimestampWindow = std::int64_t{1}
                                                 << kTimestampBits;
inline constexpr std::int64_t kTimestampHalfWindow = kTimestampWindow / 2;

/// Default ambiguity guard: 2^16 ticks = 65.5 ms on either side of the
/// wrap edge.  Generous against real clock disagreement (the sync protocol
/// holds peers to well under a second) while costing under 1% of the
/// usable window.
inline constexpr std::int64_t kDefaultGuardTicks = std::int64_t{1} << 16;

/// Hellos whose full-width clock stamp differs from the receiver's clock by
/// more than this are refused, so no later compact stamp can wrap: a
/// quarter window, half the reconstruction margin in reserve.
inline constexpr std::int64_t kMaxHelloSkewTicks = kTimestampHalfWindow / 2;

/// The Hello window contract: a peer's full-width stamp `clock_ticks`,
/// received at local time `now_ticks`, is within kMaxHelloSkewTicks of it.
inline bool hello_in_window(std::int64_t clock_ticks, std::int64_t now_ticks) {
  return clock_ticks >= now_ticks - kMaxHelloSkewTicks &&
         clock_ticks <= now_ticks + kMaxHelloSkewTicks;
}

/// Clock seconds -> ticks (round-to-nearest; exact back to ±2^62 µs).
std::int64_t to_ticks(double seconds);

/// Ticks -> clock seconds.
double from_ticks(std::int64_t ticks);

/// The wire form: low 24 bits of the tick count.
inline std::uint32_t compress24(std::int64_t ticks) {
  return static_cast<std::uint32_t>(ticks) & kTimestampMask;
}

struct Reconstructed {
  /// The unique tick count congruent to the compressed stamp (mod 2^24)
  /// within (ref − 2^23, ref + 2^23].
  std::int64_t ticks{0};
  /// Distance to the reference landed within `guard` of the ±2^23 edge:
  /// the true stamp could be a full window away.  Drop the sample.
  bool ambiguous{false};
};

/// Rebuilds a full tick count from a 24-bit stamp and the receiver's local
/// reference (its own clock, in ticks, at receive time).  Total: any input
/// yields a result; `ambiguous` is the only failure signal.
Reconstructed reconstruct24(std::uint32_t stamp24, std::int64_t ref_ticks,
                            std::int64_t guard_ticks = kDefaultGuardTicks);

}  // namespace cs::net
