// In-memory span recorder for the benchmark's traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around its public calls
// into each layer; the library itself carries no timers.  A span has a
// name, a start, an end, a parent and the id of the op it belongs to.
// Spans of the running op are buffered; fold() turns them into per-op self
// times and moves a bounded number of them into the retained log that
// write_jsonl() dumps at exit.
//
// Self time of a span is its duration minus the durations of the spans
// whose parent it is.  A parent is normally the innermost open span, but a
// span may name its parent explicitly: that is how the traced run times
// the inner calls of a nested public call (synchronize, replay, run_live)
// separately, after the op, on the same inputs, and charges the outer call
// only its own share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

class Tracer {
 public:
  static constexpr std::int32_t kInnermost = -2;
  static constexpr std::int32_t kRoot = -1;

  /// Opens a span under `parent` (kInnermost = the innermost open span)
  /// and returns its id within the current op.
  std::int32_t begin(const char* name, std::int32_t parent = kInnermost) {
    if (parent == kInnermost) parent = open_.empty() ? kRoot : open_.back();
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Record{name, now_ns(), 0, parent});
    open_.push_back(id);
    return id;
  }

  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Drops the current op's spans (the op threw mid-span).
  void discard() {
    spans_.clear();
    open_.clear();
  }

  /// Closes the current op (`op` = 0 for set-up): adds each span name's
  /// summed self time, in ms, as one sample of that name.
  void fold(std::uint64_t op) {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Record& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> self_ms;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self_ms[spans_[i].name] +=
          1e-6 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                     child_ns[i]);
    for (const auto& [name, ms] : self_ms) samples_[name].push_back(ms);

    if (kept_.size() + spans_.size() <= kMaxKeptSpans) {
      const auto base = static_cast<std::int64_t>(kept_.size());
      for (const Record& s : spans_)
        kept_.push_back(Kept{s, op, s.parent >= 0 ? base + s.parent : -1});
    } else {
      dropped_ += spans_.size();
    }
    discard();
  }

  /// Median over ops (or set-up repetitions) of one span name's per-op
  /// self time, in ms; 0 if no op had such a span.
  double median_ms(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

  /// Writes the retained spans as JSON lines (ids are line indices).
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Kept& k : kept_)
      std::fprintf(f,
                   "{\"op\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld}\n",
                   static_cast<unsigned long long>(k.op), k.span.name,
                   static_cast<long long>(k.span.start_ns),
                   static_cast<long long>(k.span.end_ns),
                   static_cast<long long>(k.parent));
    return std::fclose(f) == 0;
  }

  std::size_t kept() const { return kept_.size(); }
  std::size_t dropped() const { return dropped_; }

 private:
  // Bounds the retained log (a probe-serve op alone makes ~20k spans).
  static constexpr std::size_t kMaxKeptSpans = 50'000;

  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };
  struct Kept {
    Record span;
    std::uint64_t op;
    std::int64_t parent;
  };

  std::vector<Record> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Kept> kept_;
  std::size_t dropped_{0};
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name,
       std::int32_t parent = Tracer::kInnermost)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace bench
