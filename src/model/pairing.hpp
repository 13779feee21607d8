// Message pairing and delay estimation.
//
// Lemma 6.1: given the views of sender and receiver, the *estimated delay*
// d̃(m) = d(m) + S_send - S_recv of any message is computable — it is simply
// the receive clock time minus the send clock time.  PairedMessage is that
// view-level object.  TracedMessage additionally carries ground-truth real
// times (observer-only) and hence the actual delay d(m); it exists for the
// simulator, admissibility checks, and evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_index.hpp"
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

/// The rules every pairing applies, over sends indexed by message id
/// (common/flat_index.hpp): pair_messages and PrefixPairer are its users.
class SendIndex {
 public:
  /// What one receive found.
  enum class Match { kPaired, kOrphan, kDuplicate };

  /// Room for `capacity` sends.
  explicit SendIndex(std::size_t capacity);

  // add_send and receive run once per event in both pairing loops and are
  // forced inline: at -O2 GCC otherwise calls them out of line, and
  // pair_messages measured 10–40% slower that way.

  /// Indexes a send event of view `pid`.  An id already indexed throws
  /// InvalidExecution("duplicate message id among sends").
  [[gnu::always_inline]] void add_send(ProcessorId pid,
                                       const ViewEvent& send) {
    if (index_.insert(send.msg, static_cast<std::uint32_t>(sends_.size())) !=
        FlatIndex::kAbsent)
      fail("duplicate message id among sends");
    sends_.push_back(Send{pid, send.peer, send.when});
  }

  /// Looks up the send of a receive event of view `pid`.  kOrphan when no
  /// indexed send has its id.  Throws InvalidExecution("message endpoints
  /// disagree between views") when the send names another receiver or the
  /// receive another sender.  kDuplicate when an earlier receive paired
  /// with that send: events are in per-processor time order and both
  /// receives live in the receiver's view, so the first one met is the
  /// earliest copy, the one kept.  Otherwise marks the send received,
  /// writes the pair to `out` and returns kPaired.
  [[gnu::always_inline]] Match receive(ProcessorId pid,
                                       const ViewEvent& receive,
                                       PairedMessage& out) {
    const std::uint32_t i = index_.find(receive.msg);
    if (i == FlatIndex::kAbsent) return Match::kOrphan;
    const Send& s = sends_[i];
    if (s.to != pid || s.from != receive.peer)
      fail("message endpoints disagree between views");
    if (received_[i]) return Match::kDuplicate;
    received_[i] = true;
    out = PairedMessage{receive.msg, s.from, pid, s.when, receive.when};
    return Match::kPaired;
  }

  std::size_t sends() const { return sends_.size(); }

 private:
  struct Send {
    ProcessorId from;
    ProcessorId to;
    ClockTime when;
  };

  /// Throws InvalidExecution(what), out of line: the throw stays out of
  /// the inlined loops.
  [[noreturn]] static void fail(const char* what);

  FlatIndex index_;
  std::vector<Send> sends_;
  std::vector<bool> received_;  // by send slot, sized to capacity
};

/// Pairing of growing prefixes of the same views, reading each event once.
/// advance(c) extends every view's cut to its events before clock time c
/// (View::prefix(c)) and pairs only what the extension adds: its sends are
/// indexed first, then each view's receives still waiting for their send
/// and its new receives are looked up, view by view in event order.  A
/// receive whose send is not yet in the cut waits for a later advance.
/// The result at every cutoff is pair_messages(prefixes, kDropOrphans)'s:
/// the same pairs, the same stats(), and the same InvalidExecution at the
/// same cutoff.  Every view must be in clock order (View::in_clock_order),
/// for then a prefix is a leading run of its events.  After a throw the
/// pairer is spent.
class PrefixPairer {
 public:
  /// `views` must outlive the pairer.
  explicit PrefixPairer(std::span<const View> views);

  /// Moves the cut to `cutoff` (not below the last one) and returns the
  /// messages it pairs that the previous cut did not, in pairing order.
  /// The span lives until the next call.
  std::span<const PairedMessage> advance(ClockTime cutoff);

  /// Tallies of the current cut, as pair_messages gives them.
  PairingStats stats() const;

 private:
  struct Waiting {
    std::size_t view;
    const ViewEvent* event;
  };

  std::span<const View> views_;
  SendIndex index_;
  std::vector<std::size_t> read_;  // per view: events already in the cut
  std::vector<Waiting> waiting_;   // orphan receives of the cut, by view
  std::vector<Waiting> scratch_;
  std::vector<PairedMessage> fresh_;
  std::size_t receives_{0};
  std::size_t paired_{0};
  std::size_t duplicates_{0};
};

/// As above, with ground-truth real times attached from the histories.
std::vector<TracedMessage> trace_messages(const Execution& exec);

}  // namespace cs
