#include "trace/trace.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"
#include "io/views_io.hpp"

namespace cs {
namespace {

constexpr const char* kHeader = "chronosync-trace v1";
// Event records are most of a trace, and recorded event lines average 55 to
// 58 bytes (the four test goldens and the benchmark's trace-replay input).
// Reserving one event per kEventLineBytes of the input spares the event
// array its growth copies, at the cost of some unused capacity (about a
// fifth on those inputs).
constexpr std::size_t kEventLineBytes = 48;

/// The bytes from the read position of `buf` to its end, or 0 when it
/// cannot seek (a pipe, say).  The read position is left where it was.
std::size_t bytes_left(std::streambuf& buf) {
  const std::streampos here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return 0;
  const std::streampos end = buf.pubseekoff(0, std::ios::end, std::ios::in);
  buf.pubseekpos(here, std::ios::in);
  return end > here ? static_cast<std::size_t>(end - here) : 0;
}

const char* loss_cause_name(LossCause c) {
  switch (c) {
    case LossCause::kSampler: return "sampler";
    case LossCause::kFaultDrop: return "drop";
    case LossCause::kLinkDown: return "down";
  }
  return "?";
}

/// The loss cause named `tok`, or nullopt.
std::optional<LossCause> loss_cause_of(std::string_view tok) {
  if (tok == "sampler") return LossCause::kSampler;
  if (tok == "drop") return LossCause::kFaultDrop;
  if (tok == "down") return LossCause::kLinkDown;
  return std::nullopt;
}

const char* match_name(MatchPolicy m) {
  return m == MatchPolicy::kStrict ? "strict" : "drop-orphans";
}

void put_event(text::Writer& w, const TraceEvent& ev) {
  w << "event " << static_cast<char>(ev.kind) << ' ' << ev.real.sec;
  switch (ev.kind) {
    case TraceEvent::Kind::kSend:
    case TraceEvent::Kind::kDeliver:
      w << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' ' << ev.clock.sec;
      break;
    case TraceEvent::Kind::kLoss:
      w << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' '
        << loss_cause_name(ev.cause);
      break;
    case TraceEvent::Kind::kCrashDrop:
      w << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg;
      break;
    case TraceEvent::Kind::kDuplicate:
    case TraceEvent::Kind::kSpike:
      w << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' ' << ev.extra;
      break;
    case TraceEvent::Kind::kTimerSet:
    case TraceEvent::Kind::kTimerFire:
      w << ' ' << ev.a << ' ' << ev.clock.sec << ' ' << ev.timer_at.sec;
      break;
    case TraceEvent::Kind::kTimerSuppressed:
      w << ' ' << ev.a << ' ' << ev.timer_at.sec;
      break;
  }
}

}  // namespace

std::string format_event(const TraceEvent& ev) {
  std::string out;
  text::Writer w(out);
  put_event(w, ev);
  return out;
}

bool EpochRecord::operator==(const EpochRecord& o) const {
  return boundary == o.boundary && precision == o.precision &&
         carried_edges == o.carried_edges &&
         observed_directions == o.observed_directions &&
         total_directions == o.total_directions &&
         pairing.paired == o.pairing.paired &&
         pairing.orphan_receives == o.pairing.orphan_receives &&
         pairing.duplicate_receives == o.pairing.duplicate_receives &&
         pairing.unreceived_sends == o.pairing.unreceived_sends &&
         component_precision == o.component_precision &&
         corrections == o.corrections;
}

EpochRecord epoch_record(const EpochOutcome& outcome) {
  EpochRecord r;
  r.boundary = outcome.boundary;
  r.precision = outcome.sync.optimal_precision;
  r.carried_edges = outcome.carried_edges;
  r.observed_directions = outcome.coverage.observed_directions;
  r.total_directions = outcome.coverage.total_directions;
  r.pairing = outcome.pairing;
  r.component_precision = outcome.sync.component_precision;
  r.corrections = outcome.sync.corrections;
  return r;
}

SystemModel Trace::model() const {
  std::istringstream is(model_text);
  try {
    return load_model(is);
  } catch (const Error& e) {
    throw Error(std::string("in embedded trace model: ") + e.what());
  }
}

void save_trace(std::ostream& os, const Trace& trace) {
  text::Writer w(os);
  w << kHeader << '\n';
  w << "processors " << trace.processors << '\n';
  w << "seed " << trace.seed << '\n';
  for (std::size_t p = 0; p < trace.starts.size(); ++p)
    w << "start " << p << ' ' << trace.starts[p] << '\n';
  for (std::size_t p = 0; p < trace.rates.size(); ++p)
    w << "rate " << p << ' ' << trace.rates[p] << '\n';

  w << "begin model\n" << trace.model_text;
  if (!trace.model_text.empty() && trace.model_text.back() != '\n') w << '\n';
  w << "end model\n";

  const ReplayPlan& plan = trace.plan;
  w << "root " << plan.options.sync.root << '\n';
  w << "match " << match_name(plan.options.sync.match) << '\n';
  w << "window " << plan.options.window.sec << '\n';
  const StalenessOptions& st = plan.options.staleness;
  w << "staleness " << (st.carry_forward ? '1' : '0') << ' '
    << st.widen_per_epoch << ' ';
  if (st.max_carry_epochs == std::numeric_limits<std::size_t>::max())
    w << "inf";
  else
    w << st.max_carry_epochs;
  w << '\n';
  for (const ClockTime b : plan.boundaries) w << "boundary " << b.sec << '\n';

  for (const TraceEvent& ev : trace.events) {
    put_event(w, ev);
    w << '\n';
  }

  for (const auto& [name, value] : trace.tallies)
    w << "tally " << name << ' ' << value << '\n';

  for (std::size_t k = 0; k < trace.recorded.size(); ++k) {
    const EpochRecord& r = trace.recorded[k];
    w << "outcome " << k << " boundary " << r.boundary.sec << " precision "
      << r.precision.value() << " carried " << r.carried_edges
      << " coverage " << r.observed_directions << ' ' << r.total_directions
      << " pairing " << r.pairing.paired << ' ' << r.pairing.orphan_receives
      << ' ' << r.pairing.duplicate_receives << ' '
      << r.pairing.unreceived_sends << " components "
      << r.component_precision.size();
    for (const double p : r.component_precision) w << ' ' << p;
    w << " corrections";
    for (const double c : r.corrections) w << ' ' << c;
    w << '\n';
  }

  for (const auto& [name, value] : trace.counters)
    w << "counter " << name << ' ' << value << '\n';
  w << "end trace\n";
  w.flush();
}

namespace {

/// One event tag's fields after the real time, in line order: the one
/// field list of the event record.  `In` reads each field into its place;
/// false for an unknown tag or at the first field `in` refuses.
template <class In>
bool event_fields(In& in, char tag, TraceEvent& ev) {
  switch (tag) {
    case 'D':
    case 'R':
      return in.id(ev.a) && in.id(ev.b) && in.u64(ev.msg) &&
             in.number(ev.clock.sec);
    case 'L':
      return in.id(ev.a) && in.id(ev.b) && in.u64(ev.msg) &&
             in.cause(ev.cause);
    case 'X':
      return in.id(ev.a) && in.id(ev.b) && in.u64(ev.msg);
    case 'U':
    case 'K':
      return in.id(ev.a) && in.id(ev.b) && in.u64(ev.msg) &&
             in.number(ev.extra);
    case 'T':
    case 'F':
      return in.id(ev.a) && in.number(ev.clock.sec) &&
             in.number(ev.timer_at.sec);
    case 'Z':
      return in.id(ev.a) && in.number(ev.timer_at.sec);
  }
  return false;
}

/// Reads the fields in place off the line; refuses quietly.
struct InPlaceFields {
  text::Fields f;
  bool id(std::uint32_t& v) { return f.id(v); }
  bool u64(std::uint64_t& v) { return f.u64(v); }
  bool number(double& v) { return f.number(v); }
  bool cause(LossCause& c) {
    const std::optional<LossCause> got = loss_cause_of(f.word());
    if (got) c = *got;
    return got.has_value();
  }
};

/// Reads the tokens from r[3] on through LineReader's checks, which throw
/// the error text.
struct CheckedFields {
  const text::LineReader& r;
  std::size_t i = 3;
  bool id(std::uint32_t& v) {
    v = r.id(r[i++]);
    return true;
  }
  bool u64(std::uint64_t& v) {
    v = r.u64(r[i++]);
    return true;
  }
  bool number(double& v) {
    v = r.number(r[i++]);
    return true;
  }
  bool cause(LossCause& c) {
    const std::string_view tok = r[i++];
    const std::optional<LossCause> got = loss_cause_of(tok);
    if (!got) r.fail("unknown loss cause '" + std::string(tok) + "'");
    c = *got;
    return true;
  }
};

/// Counts a tag's fields and reads none.
struct FieldCount {
  std::size_t n = 0;
  bool id(std::uint32_t&) { return take(); }
  bool u64(std::uint64_t&) { return take(); }
  bool number(double&) { return take(); }
  bool cause(LossCause&) { return take(); }
  bool take() {
    ++n;
    return true;
  }
};

/// The in-place read of an event line, straight off the line with no token
/// vector.  Accepts exactly what parse_event accepts, with the same values;
/// false on anything else, which parse_event then reads for its error.
bool read_event(std::string_view line, TraceEvent& ev) {
  InPlaceFields in{text::Fields(line)};
  if (in.f.word() != "event") return false;
  const std::string_view tag = in.f.word();
  if (tag.size() != 1 || !in.number(ev.real.sec) ||
      !event_fields(in, tag[0], ev))
    return false;
  ev.kind = static_cast<TraceEvent::Kind>(tag[0]);
  return in.f.done();
}

/// The checked read of a split event line: the field count first, then the
/// fields left to right, each failure thrown with its own text.
TraceEvent parse_event(const text::LineReader& r) {
  // r[0] == "event"; r[1] is the tag, r[2] the real time.
  if (r.size() < 3) r.fail("truncated event record");
  if (r[1].size() != 1)
    r.fail("unknown event tag '" + std::string(r[1]) + "'");
  TraceEvent ev;
  ev.real = RealTime{r.number(r[2])};
  const char tag = r[1][0];
  FieldCount count;
  if (!event_fields(count, tag, ev))
    r.fail("unknown event tag '" + std::string(r[1]) + "'");
  if (r.size() != 3 + count.n)
    r.fail(std::string("wrong field count for event '") + tag + "' (got " +
           std::to_string(r.size() - 1) + " fields)");
  CheckedFields in{r};
  event_fields(in, tag, ev);
  ev.kind = static_cast<TraceEvent::Kind>(tag);
  return ev;
}

EpochRecord parse_outcome(const text::LineReader& r, std::size_t processors) {
  // outcome <k> boundary <t> precision <p> carried <n> coverage <o> <t>
  //   pairing <p> <o> <d> <u> components <k> <p...> corrections <c...>
  EpochRecord rec;
  std::size_t i = 2;
  auto take = [&]() {
    if (i >= r.size()) r.fail("truncated outcome record");
    return r[i++];
  };
  auto expect = [&](const char* label) {
    const std::string_view got = take();
    if (got != label)
      r.fail(std::string("expected '") + label +
             "' segment in outcome record, got '" + std::string(got) + "'");
  };
  expect("boundary");
  rec.boundary = ClockTime{r.number(take())};
  expect("precision");
  rec.precision = ExtReal{r.number(take())};
  expect("carried");
  rec.carried_edges = r.u64(take());
  expect("coverage");
  rec.observed_directions = r.u64(take());
  rec.total_directions = r.u64(take());
  expect("pairing");
  rec.pairing.paired = r.u64(take());
  rec.pairing.orphan_receives = r.u64(take());
  rec.pairing.duplicate_receives = r.u64(take());
  rec.pairing.unreceived_sends = r.u64(take());
  expect("components");
  const std::size_t comp = r.u64(take());
  for (std::size_t c = 0; c < comp; ++c)
    rec.component_precision.push_back(r.number(take()));
  expect("corrections");
  while (i < r.size()) rec.corrections.push_back(r.number(r[i++]));
  if (rec.corrections.size() != processors)
    r.fail("corrections count mismatch: got " +
           std::to_string(rec.corrections.size()) + ", expected " +
           std::to_string(processors));
  return rec;
}

}  // namespace

Trace load_trace(std::istream& is) {
  text::LineReader r(is, "trace parse error");
  if (!r.next())
    r.fail_at(1, "empty stream (expected '" + std::string(kHeader) + "')");
  if (!r.is(kHeader))
    r.fail("expected header '" + std::string(kHeader) + "', got '" +
           r.line() + "'");

  Trace trace;
  trace.events.reserve(bytes_left(*is.rdbuf()) / kEventLineBytes);
  bool saw_processors = false;
  bool saw_end = false;
  std::size_t next_outcome = 0;

  while (r.next_unsplit()) {
    TraceEvent event;
    if (read_event(r.line(), event)) {
      trace.events.push_back(event);
      continue;
    }
    r.split();
    const std::string_view key = r[0];
    auto need = [&](std::size_t n) {
      if (r.size() != n)
        r.fail("wrong field count in '" + std::string(key) + "' record: '" +
               r.line() + "'");
    };
    if (key == "event") {
      // Refused in place: the checked read names what is wrong.
      trace.events.push_back(parse_event(r));
    } else if (key == "processors") {
      need(2);
      trace.processors = r.count(r[1], kMaxProcessors);
      trace.starts.assign(trace.processors, 0.0);
      saw_processors = true;
    } else if (key == "seed") {
      need(2);
      trace.seed = r.u64(r[1]);
    } else if (key == "start" || key == "rate") {
      need(3);
      if (!saw_processors)
        r.fail("'" + std::string(key) + "' before 'processors'");
      const auto pid = r.u64(r[1]);
      if (pid >= trace.processors)
        r.fail("processor id out of range: '" + std::string(r[1]) + "'");
      const double v = r.number(r[2]);
      if (key == "start") {
        trace.starts[pid] = v;
      } else {
        if (trace.rates.empty()) trace.rates.assign(trace.processors, 1.0);
        trace.rates[pid] = v;
      }
    } else if (r.is("begin model")) {
      bool closed = false;
      std::string body;
      while (r.next_raw()) {
        if (r.is("end model")) {
          closed = true;
          break;
        }
        body += r.line();
        body += '\n';
      }
      if (!closed) r.fail("unterminated embedded model block");
      trace.model_text = std::move(body);
    } else if (key == "pipeline") {
      // Written by recorders that still offered a from-scratch epoch
      // driver.  An incremental recording replays bit for bit on the one
      // driver; a rebuild recording differs from it in the last ulps.
      need(2);
      if (r[1] == "rebuild")
        r.fail("record '" + r.line() +
               "': the trace predates the single epoch driver (delta APSP "
               "+ Howard warm start) and must be re-recorded; its recorded "
               "corrections cannot replay bit for bit");
      if (r[1] != "incremental")
        r.fail("unknown pipeline mode '" + std::string(r[1]) + "'");
    } else if (key == "apsp") {
      // Written by recorders that still offered a choice of APSP algorithm.
      // The epoch driver never read it, so the line is ignored.
      need(2);
      if (r[1] != "johnson" && r[1] != "floyd-warshall")
        r.fail("unknown apsp algorithm '" + std::string(r[1]) + "'");
    } else if (key == "root") {
      need(2);
      trace.plan.options.sync.root = r.id(r[1]);
    } else if (key == "cycle-mean") {
      // Written by recorders that still offered a choice of cycle-mean
      // algorithm; their recorded corrections cannot replay bit for bit.
      r.fail("record '" + r.line() +
             "': the trace predates the single SHIFTS path (Howard "
             "+ Dijkstra corrections) and must be re-recorded; its "
             "recorded corrections cannot replay bit for bit");
    } else if (key == "match") {
      need(2);
      if (r[1] == "strict")
        trace.plan.options.sync.match = MatchPolicy::kStrict;
      else if (r[1] == "drop-orphans")
        trace.plan.options.sync.match = MatchPolicy::kDropOrphans;
      else
        r.fail("unknown match policy '" + std::string(r[1]) + "'");
    } else if (key == "window") {
      need(2);
      trace.plan.options.window = Duration{r.number(r[1])};
    } else if (key == "staleness") {
      need(4);
      StalenessOptions& st = trace.plan.options.staleness;
      st.carry_forward = r.u64(r[1]) != 0;
      st.widen_per_epoch = r.number(r[2]);
      st.max_carry_epochs = r[3] == "inf"
                                ? std::numeric_limits<std::size_t>::max()
                                : r.u64(r[3]);
    } else if (key == "boundary") {
      need(2);
      trace.plan.boundaries.push_back(ClockTime{r.number(r[1])});
    } else if (key == "tally") {
      need(3);
      trace.tallies[std::string(r[1])] = r.u64(r[2]);
    } else if (key == "outcome") {
      if (r.size() < 2) r.fail("truncated outcome record");
      if (!saw_processors) r.fail("'outcome' before 'processors'");
      const std::size_t idx = r.u64(r[1]);
      if (idx != next_outcome)
        r.fail("outcome records out of order: got index " + std::string(r[1]) +
               ", expected " + std::to_string(next_outcome));
      ++next_outcome;
      trace.recorded.push_back(parse_outcome(r, trace.processors));
    } else if (key == "counter") {
      need(3);
      trace.counters[std::string(r[1])] = r.u64(r[2]);
    } else if (r.is("end trace")) {
      saw_end = true;
      break;
    } else {
      r.fail("unknown record '" + std::string(key) + "'");
    }
  }
  if (!saw_end) r.fail("missing 'end trace' (truncated file?)");
  if (!saw_processors) r.fail("missing 'processors' record");
  if (trace.model_text.empty()) r.fail("missing embedded model block");
  return trace;
}

void save_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) throw Error("cannot open for writing: " + path);
  save_trace(os, trace);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open for reading: " + path);
  return load_trace(is);
}

}  // namespace cs
