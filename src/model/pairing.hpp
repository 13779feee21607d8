// Message pairing and delay estimation.
//
// Lemma 6.1: given the views of sender and receiver, the *estimated delay*
// d̃(m) = d(m) + S_send - S_recv of any message is computable — it is simply
// the receive clock time minus the send clock time.  PairedMessage is that
// view-level object.  TracedMessage additionally carries ground-truth real
// times (observer-only) and hence the actual delay d(m); it exists for the
// simulator, admissibility checks, and evaluation.
#pragma once

#include <span>
#include <vector>

#include "model/execution.hpp"
#include "model/view.hpp"

namespace cs {

struct PairedMessage {
  MessageId id{0};
  ProcessorId from{0};
  ProcessorId to{0};
  ClockTime send_clock{};
  ClockTime recv_clock{};

  /// d̃(m) = T_recv - T_send in clock times (Lemma 6.1).  May be negative:
  /// the receiver's clock can be behind the sender's.
  Duration estimated_delay() const { return recv_clock - send_clock; }
};

struct TracedMessage {
  PairedMessage msg;
  RealTime send_real{};
  RealTime recv_real{};

  /// Actual delay d(m); non-negative in physical executions, but possibly
  /// negative in shifted executions probed by the admissibility machinery.
  Duration delay() const { return recv_real - send_real; }
};

/// What to do with a receive event whose matching send is absent from the
/// given views, or whose message id was already received.  In a complete
/// fault-free execution both are malformations (kStrict); in per-processor
/// view *prefixes* taken at an epoch boundary a sendless receive is
/// normal — the receiver may have cut its snapshot later in real time than
/// the sender did, so the send legitimately falls outside the prefix — and
/// under fault injection a network may re-deliver a message id
/// (kDropOrphans keeps the earliest copy and skips the rest).
enum class MatchPolicy { kStrict, kDropOrphans };

/// Tallies of what pairing kept and skipped — the raw material of per-link
/// observation coverage reports under faulty traffic.
struct PairingStats {
  std::size_t paired{0};              ///< PairedMessages produced
  std::size_t orphan_receives{0};     ///< receives without a send, skipped
  std::size_t duplicate_receives{0};  ///< re-received ids, skipped
  std::size_t unreceived_sends{0};    ///< sends with no surviving receive
};

/// Pair sends with receives across the given views.  Messages sent but not
/// (yet) received are dropped — they carry no delay information.  Under
/// kStrict, throws InvalidExecution on: a receive with no matching send, a
/// message id received more than once (exactly one PairedMessage may exist
/// per send), duplicate message ids among sends, or mismatched endpoint
/// metadata.  Under kDropOrphans, sendless receives are skipped and only
/// the earliest receive of a re-delivered id is paired (the other
/// malformations still throw).  `stats`, when non-null, receives the
/// kept/skipped tallies: orphan and duplicate counts are added to what it
/// holds, `paired` and `unreceived_sends` are overwritten.
///
/// Output is in receive order: views in the given order, each view's
/// receives in event order.  One pass over the views first collects every
/// send (any duplicate id among them throws before a receive is looked
/// at) into a send array indexed by a flat open-addressing table keyed by
/// message id (common/flat_index.hpp); a second pass looks each receive up
/// there and marks its send received by array slot.  Any u64 is a valid
/// message id.
std::vector<PairedMessage> pair_messages(
    std::span<const View> views, MatchPolicy policy = MatchPolicy::kStrict,
    PairingStats* stats = nullptr);

/// As above, with ground-truth real times attached from the histories.
std::vector<TracedMessage> trace_messages(const Execution& exec);

}  // namespace cs
