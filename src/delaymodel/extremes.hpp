// The one §7 report: per incoming direction, the extremes (d̃min, d̃max)
// and the observation count.  Lemmas 6.2 and 6.5 make the extremes the
// whole input of the bounds, lower-bound, no-bounds and bias estimators,
// and min, max and counts of the same doubles are exact, so a leader that
// folds every agent's report holds the LinkStats an offline pass over the
// same views builds, bit for bit.  SyncAgent (runtime/agent.hpp) and
// NetDaemon (net/daemon.hpp) both send it; a windowed-bias link needs the
// observation series no report carries, so both refuse such a model.
//
// Payload, doubles throughout:  [dir_count, (peer, dmin, dmax, count) ...].
// Over UDP any local process can send a frame, so every integer field is
// read through wire_integer before it is cast, and a bad field refuses the
// whole payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "delaymodel/link_stats.hpp"

namespace cs {

/// Extremes of one incoming direction peer → reporter.
struct DirectionExtremes {
  ProcessorId peer{0};
  double dmin{0.0};
  double dmax{0.0};
  std::uint64_t count{0};

  bool operator==(const DirectionExtremes&) const = default;
};

/// One agent's report: the incoming directions it observed.
struct ReportedExtremes {
  ProcessorId agent{0};
  std::vector<DirectionExtremes> dirs;

  bool operator==(const ReportedExtremes&) const = default;
};

/// A wire double as an integer in [lo, hi], or nullopt.  Casting a NaN,
/// negative, fractional or huge double is undefined behaviour; below 2^53
/// a whole double survives the cast exactly, so nothing above is taken.
std::optional<std::uint64_t> wire_integer(double v, std::uint64_t lo,
                                          std::uint64_t hi);

/// Appends the payload of `dirs` to `out`.
void encode_extremes(std::span<const DirectionExtremes> dirs,
                     std::vector<double>& out);

/// True when `data` is exactly one payload whose records each have a peer
/// < `processors`, finite extremes with d̃min <= d̃max and a count >= 1.
/// `*out`, when given, then holds the records (on failure, none); a null
/// `out` checks without allocating.
bool decode_extremes(std::span<const double> data, std::size_t processors,
                     std::vector<DirectionExtremes>* out);

/// Folds a report into `stats`, each record as direction peer → agent;
/// pairs that are not links are skipped, as in LinkStats::add_stats.
void add_extremes(LinkStats& stats, const ReportedExtremes& report);

/// Throws cs::Error, prefixed with `who`, naming the first link whose m̃ls
/// needs the observation series (windowed bias).
void require_extreme_sufficient(const SystemModel& model,
                                const std::string& who);

}  // namespace cs
