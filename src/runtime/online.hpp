// Streaming estimator state: what a live agent accumulates as messages
// arrive, and how it is cut at epoch boundaries.
//
// OnlineViewBuilder is the live counterpart of Execution::views(): the host
// appends each dispatched event as it happens, so at any moment views()
// holds exactly what an offline observer would have reconstructed from a
// trace of the run so far.  It is what the daemon's offline self-check and
// the recorded trace are computed from.
//
// OnlineEstimator is the per-agent ingest path of Lemma 6.1 done online:
// every probe carries its send clock, the receiver stamps its receive
// clock, and d̃ = T_recv − T_send is banked per incoming direction.  The
// subtlety is the epoch cut.  The offline pipeline cuts every view at
// boundary T with View::prefix (events strictly before T) and pairs under
// MatchPolicy::kDropOrphans, so an observation survives the epoch-k cut
// iff *both* its send clock and its receive clock are < T.  take_report(T)
// applies exactly that predicate — not "observations that arrived before
// my report timer fired", which can disagree with the prefix cut by one
// event when clock arithmetic lands within an ulp of the boundary.  The
// observations newly inside the cut are folded into per-direction
// extremes (the Lemma 6.2/6.5 sufficient statistic, delaymodel/
// extremes.hpp) and forgotten; the leader folds every agent's delta
// extremes into the cumulative LinkStats of each epoch, which min and max
// reproduce exactly.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "delaymodel/extremes.hpp"
#include "model/view.hpp"

namespace cs {

/// Incrementally maintained per-processor views.
class OnlineViewBuilder {
 public:
  explicit OnlineViewBuilder(std::size_t processors);

  void start(ProcessorId pid);
  void send(ProcessorId pid, ClockTime when, MessageId msg,
            ProcessorId peer);
  void receive(ProcessorId pid, ClockTime when, MessageId msg,
               ProcessorId peer);
  void timer_set(ProcessorId pid, ClockTime when, ClockTime at);
  void timer_fire(ProcessorId pid, ClockTime when, ClockTime at);

  std::span<const View> views() const { return views_; }

 private:
  std::vector<View> views_;
};

/// One agent's incoming-direction estimator.
class OnlineEstimator {
 public:
  /// Bank one probe observation on direction peer -> self.  Duplicate
  /// message ids (a transport may redeliver) are ignored — keep-earliest,
  /// mirroring kDropOrphans — and so is a non-finite d̃, which no clock
  /// reading yields but a forged stamp can.
  void ingest(ProcessorId peer, MessageId msg, ClockTime send_clock,
              ClockTime recv_clock);

  /// Extremes of the observations inside the cumulative epoch cut at
  /// `boundary` (send < T and recv < T, the View::prefix × kDropOrphans
  /// predicate) that no earlier take_report() folded: one record per
  /// direction that has any, peer ascending.  Those observations are then
  /// forgotten.
  std::vector<DirectionExtremes> take_report(ClockTime boundary);

 private:
  struct Banked {
    ProcessorId peer{0};
    double send{0.0};
    double recv{0.0};
  };

  std::vector<Banked> pending_;  // not yet inside a reported cut
  std::unordered_set<MessageId> seen_;
};

}  // namespace cs
