// Views: everything a processor knows after the interactive part.
//
// A view is the sequence of a processor's events with their *clock* times;
// real times of occurrence are deliberately absent (§2.1).  Two executions
// are equivalent iff all views coincide, and a correction function is a map
// from views to corrections (§3) — so View is the sole input type of the
// synchronization pipeline.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "model/step.hpp"

namespace cs {

struct View {
  ProcessorId pid{0};
  std::vector<ViewEvent> events;

  bool operator==(const View&) const = default;

  /// All send events, in order.
  std::vector<ViewEvent> sends() const;
  /// All receive events, in order.
  std::vector<ViewEvent> receives() const;

  /// The view as it existed when this processor's clock read `cutoff`:
  /// events strictly before the cutoff (the start event is always kept).
  /// This is what a processor can hand to the pipeline at an epoch
  /// boundary of a periodically re-synchronizing deployment.
  View prefix(ClockTime cutoff) const;

  /// Sliding-window cut: events e with `from <= e.when < until` (the start
  /// event is always kept).  A deployment with bounded memory — or one
  /// whose clocks drift, making old probes stale — hands the pipeline a
  /// recent window rather than its whole life; links silent for a full
  /// window then genuinely lose their observations, which is what the
  /// degraded-mode machinery (core/degraded.hpp) compensates for.
  View window(ClockTime from, ClockTime until) const;

  /// True when the clock times of the events other than kStart never
  /// decrease (a NaN time fails): prefix(c) is then a leading run of the
  /// events, which is what model/pairing.hpp's PrefixPairer reads.
  bool in_clock_order() const;
};

}  // namespace cs
