// Hash-map message pairing.
//
// The reference for model/pairing.hpp: sends in an unordered_map keyed by
// message id, receipts in an unordered_set.  The library pairs through one
// flat open-addressing index instead; it must return the same pairs in the
// same order, the same PairingStats and the same InvalidExecution message.
#pragma once

#include <span>
#include <vector>

#include "model/pairing.hpp"

namespace cs {

/// pair_messages() as the hash-map reference computes it.
std::vector<PairedMessage> reference_pair_messages(
    std::span<const View> views, MatchPolicy policy = MatchPolicy::kStrict,
    PairingStats* stats = nullptr);

}  // namespace cs
