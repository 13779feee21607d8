#include "baselines/hmm.hpp"

#include <unordered_map>

#include "core/local_estimates.hpp"
#include "model/pairing.hpp"

namespace cs {

SyncOutcome hmm_one_shot(const SystemModel& model, std::span<const View> views,
                         const SyncOptions& options) {
  // Keep, per directed pair, only the earliest-sent message.
  std::unordered_map<std::uint64_t, PairedMessage> first;
  for (const PairedMessage& m : pair_messages(views)) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(m.from) << 32) | m.to;
    const auto it = first.find(k);
    if (it == first.end() || m.send_clock < it->second.send_clock)
      first.insert_or_assign(k, m);
  }
  LinkStats stats(model);
  for (const auto& [k, m] : first)
    stats.add(m.from, m.to, m.estimated_delay().sec);

  SyncOutcome out;
  out.mls_graph = mls_graph_from_stats(model, stats);
  out.ms_estimates = global_shift_estimates(out.mls_graph);
  ShiftsResult shifts = compute_shifts(out.ms_estimates, options.root);
  out.corrections = std::move(shifts.corrections);
  out.optimal_precision = shifts.a_max;
  out.components = std::move(shifts.components);
  out.component_precision = std::move(shifts.component_a_max);
  out.critical_cycle = std::move(shifts.critical_cycle);
  return out;
}

}  // namespace cs
