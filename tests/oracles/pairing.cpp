#include "oracles/pairing.hpp"

#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace cs {
namespace {

struct SendRecord {
  ProcessorId from;
  ProcessorId to;
  ClockTime when;
};

std::unordered_map<MessageId, SendRecord> index_sends(
    std::span<const View> views) {
  std::unordered_map<MessageId, SendRecord> sends;
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kSend) continue;
      const auto [it, inserted] =
          sends.emplace(e.msg, SendRecord{v.pid, e.peer, e.when});
      if (!inserted)
        throw InvalidExecution("duplicate message id among sends");
      (void)it;
    }
  }
  return sends;
}

}  // namespace

std::vector<PairedMessage> reference_pair_messages(std::span<const View> views,
                                                   MatchPolicy policy,
                                                   PairingStats* stats) {
  const auto sends = index_sends(views);
  std::vector<PairedMessage> out;
  std::unordered_set<MessageId> received;
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kReceive) continue;
      const auto it = sends.find(e.msg);
      if (it == sends.end()) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->orphan_receives;
          continue;
        }
        throw InvalidExecution("receive event with no matching send");
      }
      const SendRecord& s = it->second;
      if (s.to != v.pid || s.from != e.peer)
        throw InvalidExecution("message endpoints disagree between views");
      if (!received.insert(e.msg).second) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->duplicate_receives;
          continue;
        }
        throw InvalidExecution("message received twice");
      }
      out.push_back(PairedMessage{e.msg, s.from, v.pid, s.when, e.when});
    }
  }
  if (stats != nullptr) {
    stats->paired = out.size();
    stats->unreceived_sends = sends.size() - received.size();
  }
  return out;
}

}  // namespace cs
