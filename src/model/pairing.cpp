#include "model/pairing.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/flat_index.hpp"

namespace cs {
namespace {

struct EventCounts {
  std::size_t sends{0};
  std::size_t receives{0};
};

EventCounts count_events(std::span<const View> views) {
  EventCounts n;
  for (const View& v : views)
    for (const ViewEvent& e : v.events) {
      n.sends += e.kind == EventKind::kSend;
      n.receives += e.kind == EventKind::kReceive;
    }
  return n;
}

}  // namespace

void SendIndex::fail(const char* what) { throw InvalidExecution(what); }

SendIndex::SendIndex(std::size_t capacity)
    : index_(capacity), received_(capacity, false) {
  // FlatIndex refuses a capacity whose slot numbers would not fit its
  // values, and more sends than the capacity.
  sends_.reserve(capacity);
}

std::vector<PairedMessage> pair_messages(std::span<const View> views,
                                         MatchPolicy policy,
                                         PairingStats* stats) {
  const EventCounts counts = count_events(views);

  // Every send first: a duplicate id among them throws before a receive
  // is looked at.
  SendIndex index(counts.sends);
  for (const View& v : views)
    for (const ViewEvent& e : v.events)
      if (e.kind == EventKind::kSend) index.add_send(v.pid, e);

  std::vector<PairedMessage> out;
  out.reserve(std::min(counts.sends, counts.receives));
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kReceive) continue;
      PairedMessage m;
      switch (index.receive(v.pid, e, m)) {
        case SendIndex::Match::kPaired:
          out.push_back(std::move(m));
          break;
        case SendIndex::Match::kOrphan:
          if (policy == MatchPolicy::kStrict)
            throw InvalidExecution("receive event with no matching send");
          if (stats != nullptr) ++stats->orphan_receives;
          break;
        case SendIndex::Match::kDuplicate:
          if (policy == MatchPolicy::kStrict)
            throw InvalidExecution("message received twice");
          if (stats != nullptr) ++stats->duplicate_receives;
          break;
      }
    }
  }
  if (stats != nullptr) {
    stats->paired = out.size();
    stats->unreceived_sends = index.sends() - out.size();
  }
  return out;
}

PrefixPairer::PrefixPairer(std::span<const View> views)
    : views_(views),
      index_(count_events(views).sends),
      read_(views.size(), 0) {}

std::span<const PairedMessage> PrefixPairer::advance(ClockTime cutoff) {
  fresh_.clear();
  // The events each view's cut gains; kStart events are in every prefix
  // and pair with nothing.
  std::vector<std::size_t> from(read_);
  for (std::size_t p = 0; p < views_.size(); ++p) {
    const std::vector<ViewEvent>& events = views_[p].events;
    std::size_t& i = read_[p];
    for (; i < events.size(); ++i) {
      const ViewEvent& e = events[i];
      if (e.kind != EventKind::kStart && !(e.when < cutoff)) break;
      if (e.kind == EventKind::kSend) index_.add_send(views_[p].pid, e);
    }
  }

  scratch_.clear();
  auto look_up = [&](const Waiting& w) {
    PairedMessage m;
    switch (index_.receive(views_[w.view].pid, *w.event, m)) {
      case SendIndex::Match::kPaired:
        fresh_.push_back(std::move(m));
        break;
      case SendIndex::Match::kOrphan:
        scratch_.push_back(w);
        break;
      case SendIndex::Match::kDuplicate:
        ++duplicates_;
        break;
    }
  };
  std::size_t w = 0;
  for (std::size_t p = 0; p < views_.size(); ++p) {
    for (; w < waiting_.size() && waiting_[w].view == p; ++w)
      look_up(waiting_[w]);
    const std::vector<ViewEvent>& events = views_[p].events;
    for (std::size_t i = from[p]; i < read_[p]; ++i)
      if (events[i].kind == EventKind::kReceive) {
        ++receives_;
        look_up(Waiting{p, &events[i]});
      }
  }
  waiting_.swap(scratch_);
  paired_ += fresh_.size();
  return fresh_;
}

PairingStats PrefixPairer::stats() const {
  PairingStats s;
  s.paired = paired_;
  s.orphan_receives = receives_ - paired_ - duplicates_;
  s.duplicate_receives = duplicates_;
  s.unreceived_sends = index_.sends() - paired_;
  return s;
}

std::vector<TracedMessage> trace_messages(const Execution& exec) {
  const std::vector<View> views = exec.views();
  const std::vector<PairedMessage> paired = pair_messages(views);
  std::vector<TracedMessage> out;
  out.reserve(paired.size());
  for (const PairedMessage& m : paired) {
    TracedMessage t;
    t.msg = m;
    t.send_real = exec.history(m.from).start() + (m.send_clock - ClockTime{});
    t.recv_real = exec.history(m.to).start() + (m.recv_clock - ClockTime{});
    out.push_back(t);
  }
  return out;
}

}  // namespace cs
