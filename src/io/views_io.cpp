#include "io/views_io.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"
#include "common/flat_index.hpp"
#include "common/text.hpp"
#include "delaymodel/windowed_bias.hpp"

namespace cs {
namespace {

constexpr const char* kViewsHeader = "chronosync-views v1";
constexpr const char* kModelHeader = "chronosync-model v1";

/// Reads the header line and the `processors <n>` line every document
/// starts with; returns n.
std::size_t read_preamble(text::LineReader& r, const std::string& header) {
  if (!r.next())
    r.fail_at(r.line_no() + 1, "missing header '" + header + "'");
  if (!r.is(header))
    r.fail("expected header '" + header + "', got '" + r.line() + "'");
  if (!r.next()) r.fail_at(r.line_no() + 1, "missing 'processors <n>'");
  if (r.size() != 2 || r[0] != "processors")
    r.fail("expected 'processors <n>', got '" + r.line() + "'");
  return static_cast<std::size_t>(r.count(r[1], kMaxProcessors));
}

}  // namespace

void save_views(std::ostream& os, std::span<const View> views) {
  text::Writer w(os);
  w << kViewsHeader << '\n';
  w << "processors " << views.size() << '\n';
  for (const View& v : views) {
    w << "view " << v.pid << ' ' << v.events.size() << '\n';
    for (const ViewEvent& e : v.events) {
      switch (e.kind) {
        case EventKind::kStart:
          w << "S " << e.when.sec << '\n';
          break;
        case EventKind::kSend:
          w << "D " << e.when.sec << ' ' << e.msg << ' ' << e.peer << '\n';
          break;
        case EventKind::kReceive:
          w << "R " << e.when.sec << ' ' << e.msg << ' ' << e.peer << '\n';
          break;
        case EventKind::kTimerSet:
          w << "T " << e.when.sec << ' ' << e.timer_at.sec << '\n';
          break;
        case EventKind::kTimerFire:
          w << "F " << e.when.sec << ' ' << e.timer_at.sec << '\n';
          break;
      }
    }
  }
  w.flush();
}

std::vector<View> load_views(std::istream& is) {
  text::LineReader r(is, "parse error");
  const std::size_t n = read_preamble(r, kViewsHeader);

  std::vector<View> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!r.next())
      r.fail_at(r.line_no() + 1, "truncated stream: expected view block for "
                                 "processor " +
                                     std::to_string(i) + " of " +
                                     std::to_string(n));
    if (r.size() != 3 || r[0] != "view")
      r.fail("expected 'view <pid> <events>', got '" + r.line() + "'");
    const ProcessorId pid = r.id(r[1]);
    if (pid < i)
      r.fail("duplicate view block for processor " + std::to_string(pid));
    if (pid != i) r.fail("views must appear in pid order");
    // The declared count is untrusted: it bounds the loop but sizes
    // nothing, so only the events actually present are held.
    const std::uint64_t count = r.u64(r[2]);
    const std::size_t count_line = r.line_no();
    auto declared = [&] {
      return "view " + std::to_string(pid) + " declares " +
             std::to_string(count) + " events at line " +
             std::to_string(count_line);
    };
    View& v = views[i];
    v.pid = pid;
    for (std::uint64_t e = 0; e < count; ++e) {
      if (!r.next())
        r.fail_at(r.line_no() + 1, "truncated stream: " + declared() +
                                       " but only " + std::to_string(e) +
                                       " are present");
      const std::string_view tag = r[0];
      if (tag == "view")
        r.fail("event count mismatch: " + declared() + " but only " +
               std::to_string(e) + " precede the next view block");
      ViewEvent ev;
      if (tag == "S" && r.size() == 2) {
        ev.kind = EventKind::kStart;
        ev.when = ClockTime{r.number(r[1])};
      } else if ((tag == "D" || tag == "R") && r.size() == 4) {
        ev.kind = tag == "D" ? EventKind::kSend : EventKind::kReceive;
        ev.when = ClockTime{r.number(r[1])};
        ev.msg = static_cast<MessageId>(r.u64(r[2]));
        ev.peer = r.id(r[3]);
      } else if ((tag == "T" || tag == "F") && r.size() == 3) {
        ev.kind = tag == "T" ? EventKind::kTimerSet : EventKind::kTimerFire;
        ev.when = ClockTime{r.number(r[1])};
        ev.timer_at = ClockTime{r.number(r[2])};
      } else if (tag == "S" || tag == "D" || tag == "R" || tag == "T" ||
                 tag == "F") {
        r.fail("wrong field count for event tag '" + std::string(tag) +
               "' in '" + r.line() + "'");
      } else {
        r.fail("unknown event tag '" + std::string(tag) + "'");
      }
      v.events.push_back(ev);
    }
  }
  return views;
}

namespace {

/// Emits one or more `link` lines for a constraint (composites recurse).
void emit_constraint(text::Writer& w, const LinkConstraint& c) {
  if (const auto* comp = dynamic_cast<const CompositeConstraint*>(&c)) {
    for (std::size_t i = 0; i < comp->part_count(); ++i)
      emit_constraint(w, comp->part(i));
    return;
  }
  w << "link " << c.a() << ' ' << c.b() << ' ';
  if (const auto* bounds = dynamic_cast<const BoundsConstraint*>(&c)) {
    const Interval& ab = bounds->bounds(bounds->a());
    const Interval& ba = bounds->bounds(bounds->b());
    if (!(ab == ba))
      throw Error("model format v1 cannot express asymmetric bounds");
    if (ab.hi().is_pos_inf() && ab.lo() == ExtReal{0.0}) {
      w << "none\n";
    } else if (ab.hi().is_pos_inf()) {
      w << "lower " << ab.lo().finite() << '\n';
    } else {
      w << "bounds " << ab.lo().finite() << ' ' << ab.hi().finite() << '\n';
    }
    return;
  }
  if (const auto* wb = dynamic_cast<const WindowedBiasConstraint*>(&c)) {
    w << "wbias " << wb->bias() << ' ' << wb->window() << '\n';
    return;
  }
  if (const auto* bias = dynamic_cast<const BiasConstraint*>(&c)) {
    w << "bias " << bias->bias() << '\n';
    return;
  }
  throw Error("model format v1 cannot express constraint: " + c.describe());
}

}  // namespace

void save_model(std::ostream& os, const SystemModel& model) {
  text::Writer w(os);
  w << kModelHeader << '\n';
  w << "processors " << model.processor_count() << '\n';
  for (auto [a, b] : model.topology().links)
    emit_constraint(w, model.constraint(a, b));
  w.flush();
}

SystemModel load_model(std::istream& is) {
  text::LineReader r(is, "parse error");
  const std::size_t n = read_preamble(r, kModelHeader);

  struct Line {
    ProcessorId a, b;
    std::unique_ptr<LinkConstraint> c;
  };
  std::vector<Line> lines;
  while (r.next()) {
    if (r.size() < 4 || r[0] != "link")
      r.fail("expected 'link <a> <b> <kind> ...', got '" + r.line() + "'");
    ProcessorId a = r.id(r[1]);
    ProcessorId b = r.id(r[2]);
    if (a > b) std::swap(a, b);
    if (b >= n)
      r.fail("link endpoint " + std::to_string(b) +
             " out of range (processors " + std::to_string(n) + ")");
    const std::string_view kind = r[3];
    std::unique_ptr<LinkConstraint> c;
    if (kind == "none" && r.size() == 4) {
      c = make_no_bounds(a, b);
    } else if (kind == "lower" && r.size() == 5) {
      c = make_lower_bound_only(a, b, r.number(r[4]));
    } else if (kind == "bounds" && r.size() == 6) {
      c = make_bounds(a, b, r.number(r[4]), r.number(r[5]));
    } else if (kind == "bias" && r.size() == 5) {
      c = make_bias(a, b, r.number(r[4]));
    } else if (kind == "wbias" && r.size() == 6) {
      c = make_windowed_bias(a, b, r.number(r[4]), r.number(r[5]));
    } else if (kind == "none" || kind == "lower" || kind == "bounds" ||
               kind == "bias" || kind == "wbias") {
      r.fail("wrong field count for link kind '" + std::string(kind) +
             "' in '" + r.line() + "'");
    } else {
      r.fail("unknown link kind '" + std::string(kind) + "'");
    }
    lines.push_back(Line{a, b, std::move(c)});
  }

  // One link per distinct (a, b), in first-appearance order; repeated lines
  // conjoin (Thm 5.6).
  Topology topo;
  topo.node_count = n;
  std::vector<std::vector<std::unique_ptr<LinkConstraint>>> parts;
  FlatIndex link_of(lines.size());
  for (Line& line : lines) {
    const auto next = static_cast<std::uint32_t>(parts.size());
    std::uint32_t link =
        link_of.insert((std::uint64_t{line.a} << 32) | line.b, next);
    if (link == FlatIndex::kAbsent) {
      link = next;
      topo.links.emplace_back(line.a, line.b);
      parts.emplace_back();
    }
    parts[link].push_back(std::move(line.c));
  }
  SystemModel model(std::move(topo));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto [a, b] = model.topology().links[i];
    if (parts[i].size() == 1) {
      model.set_constraint(std::move(parts[i].front()));
    } else {
      model.set_constraint(make_composite(a, b, std::move(parts[i])));
    }
  }
  return model;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw Error("cannot open for writing: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open for reading: " + path);
  return is;
}

}  // namespace

void save_views_file(const std::string& path, std::span<const View> views) {
  auto os = open_out(path);
  save_views(os, views);
}

std::vector<View> load_views_file(const std::string& path) {
  auto is = open_in(path);
  return load_views(is);
}

void save_model_file(const std::string& path, const SystemModel& model) {
  auto os = open_out(path);
  save_model(os, model);
}

SystemModel load_model_file(const std::string& path) {
  auto is = open_in(path);
  return load_model(is);
}

}  // namespace cs
