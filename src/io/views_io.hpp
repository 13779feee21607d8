// Plain-text serialization of views and system models.
//
// The deployment story of this library is: instrument your nodes to log
// (send clock, receive clock, message id) triples, ship the logs to one
// place, run the pipeline.  These readers/writers define the interchange
// format for that workflow — versioned, line-based, diff-able, and
// round-trip exact (doubles are printed with 17 significant digits; the
// number grammar is docs/TRACE.md §1's).
//
//   chronosync-views v1
//   processors <n>
//   view <pid> <event-count>
//   S 0                      # start (clock always 0)
//   D <when> <msg> <peer>    # send ("departure")
//   R <when> <msg> <peer>    # receive
//   T <when> <timer-at>      # timer set
//   F <when> <timer-at>      # timer fired
//
//   chronosync-model v1
//   processors <n>
//   link <a> <b> bounds <lb> <ub|inf>
//   link <a> <b> lower <lb>
//   link <a> <b> none
//   link <a> <b> bias <bound>
//   link <a> <b> wbias <bound> <window>
//
// Repeating `link` lines for the same pair conjoins the constraints
// (Theorem 5.6).  Lines starting with '#' and blank lines are ignored.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "delaymodel/assignment.hpp"
#include "model/view.hpp"

namespace cs {

/// Upper bound on the `processors <n>` count of a views, model or trace
/// document.  The readers size per-processor state from n before the
/// per-processor lines arrive, so a larger n is refused as malformed
/// instead of allocated.  2^20 is ten times the largest system the lab
/// runs (the 102,404-agent fabric); docs/TRACE.md states the limit.
inline constexpr std::size_t kMaxProcessors = std::size_t{1} << 20;

void save_views(std::ostream& os, std::span<const View> views);
std::vector<View> load_views(std::istream& is);  ///< throws cs::Error

void save_views_file(const std::string& path, std::span<const View> views);
std::vector<View> load_views_file(const std::string& path);

void save_model(std::ostream& os, const SystemModel& model);
SystemModel load_model(std::istream& is);  ///< throws cs::Error

void save_model_file(const std::string& path, const SystemModel& model);
SystemModel load_model_file(const std::string& path);

}  // namespace cs
