#include "model/pairing.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/flat_index.hpp"

namespace cs {
namespace {

struct SendRecord {
  ProcessorId from;
  ProcessorId to;
  ClockTime when;
};

}  // namespace

std::vector<PairedMessage> pair_messages(std::span<const View> views,
                                         MatchPolicy policy,
                                         PairingStats* stats) {
  std::size_t send_count = 0, receive_count = 0;
  for (const View& v : views)
    for (const ViewEvent& e : v.events) {
      send_count += e.kind == EventKind::kSend;
      receive_count += e.kind == EventKind::kReceive;
    }

  // The send array in view order, indexed by message id.  FlatIndex
  // refuses a capacity whose slot numbers would not fit its values.
  FlatIndex index(send_count);
  std::vector<SendRecord> sends;
  sends.reserve(send_count);
  for (const View& v : views)
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kSend) continue;
      if (index.insert(e.msg, static_cast<std::uint32_t>(sends.size())) !=
          FlatIndex::kAbsent)
        throw InvalidExecution("duplicate message id among sends");
      sends.push_back(SendRecord{v.pid, e.peer, e.when});
    }

  std::vector<PairedMessage> out;
  out.reserve(std::min(send_count, receive_count));
  std::vector<bool> received(sends.size(), false);  // by send slot
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kReceive) continue;
      const std::uint32_t i = index.find(e.msg);
      if (i == FlatIndex::kAbsent) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->orphan_receives;
          continue;
        }
        throw InvalidExecution("receive event with no matching send");
      }
      const SendRecord& s = sends[i];
      if (s.to != v.pid || s.from != e.peer)
        throw InvalidExecution("message endpoints disagree between views");
      // Exactly one PairedMessage per send: a re-received id is a faulty
      // network's duplicate.  Strict pairing rejects it; orphan-dropping
      // pairing keeps the earliest copy (events are in per-processor time
      // order, and both receives live in the same receiver's view).
      if (received[i]) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->duplicate_receives;
          continue;
        }
        throw InvalidExecution("message received twice");
      }
      received[i] = true;
      out.push_back(PairedMessage{e.msg, s.from, v.pid, s.when, e.when});
    }
  }
  if (stats != nullptr) {
    stats->paired = out.size();
    stats->unreceived_sends = sends.size() - out.size();
  }
  return out;
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
