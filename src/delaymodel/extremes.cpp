#include "delaymodel/extremes.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "delaymodel/assignment.hpp"

namespace cs {

std::optional<std::uint64_t> wire_integer(double v, std::uint64_t lo,
                                          std::uint64_t hi) {
  if (!(v >= 0.0 && v < 0x1p53)) return std::nullopt;
  const auto x = static_cast<std::uint64_t>(v);
  if (static_cast<double>(x) != v || x < lo || x > hi) return std::nullopt;
  return x;
}

void encode_extremes(std::span<const DirectionExtremes> dirs,
                     std::vector<double>& out) {
  out.reserve(out.size() + 1 + 4 * dirs.size());
  out.push_back(static_cast<double>(dirs.size()));
  for (const DirectionExtremes& d : dirs) {
    out.push_back(static_cast<double>(d.peer));
    out.push_back(d.dmin);
    out.push_back(d.dmax);
    out.push_back(static_cast<double>(d.count));
  }
}

bool decode_extremes(std::span<const double> data, std::size_t processors,
                     std::vector<DirectionExtremes>* out) {
  if (out != nullptr) out->clear();
  // A count the payload cannot hold is refused before 1 + 4·count is
  // formed, so it cannot wrap.
  const auto dirs = data.empty() || processors == 0
                        ? std::nullopt
                        : wire_integer(data[0], 0, (data.size() - 1) / 4);
  if (!dirs || data.size() != 1 + 4 * *dirs) return false;
  if (out != nullptr) out->reserve(*dirs);
  for (std::size_t i = 0; i < *dirs; ++i) {
    const double* f = data.data() + 1 + 4 * i;
    const auto peer = wire_integer(f[0], 0, processors - 1);
    const auto count = wire_integer(f[3], 1, UINT64_MAX);
    // A NaN or infinite extreme, or d̃min > d̃max, would reach every m̃ls
    // fold of the link as a quietly wrong number.
    if (!peer || !count || !std::isfinite(f[1]) || !std::isfinite(f[2]) ||
        f[1] > f[2]) {
      if (out != nullptr) out->clear();
      return false;
    }
    if (out != nullptr)
      out->push_back(DirectionExtremes{static_cast<ProcessorId>(*peer), f[1],
                                       f[2], *count});
  }
  return true;
}

void add_extremes(LinkStats& stats, const ReportedExtremes& report) {
  for (const DirectionExtremes& d : report.dirs) {
    DirectedStats s;
    s.dmin = ExtReal{d.dmin};
    s.dmax = ExtReal{d.dmax};
    s.count = d.count;
    stats.add_stats(d.peer, report.agent, s);
  }
}

void require_extreme_sufficient(const SystemModel& model,
                                const std::string& who) {
  const auto& links = model.topology().links;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkConstraint& c = model.link_constraint(i);
    if (c.extreme_sufficient()) continue;
    throw Error(who + ": link " + std::to_string(links[i].first) + "-" +
                std::to_string(links[i].second) + " (" + c.describe() +
                ") needs the observation series, which an extremes "
                "report does not carry");
  }
}

}  // namespace cs
