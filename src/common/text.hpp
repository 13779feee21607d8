// The text codec of the line-based formats (trace, views, model): a
// whitespace tokenizer over one reused line buffer, whole-field number
// parsing on std::from_chars, and double printing on std::to_chars.
//
// Doubles print as printf("%.17g") would print them — 17 significant
// digits, so every finite double (subnormals included) and ±inf reads back
// bit for bit.  The reader accepts std::from_chars's decimal grammar less
// NaN; docs/TRACE.md §1 states it.
//
// Hot records (the trace's event lines) are read in place: Fields walks a
// line's fields left to right with the same number grammar (read_number
// and friends, which parse_number and friends are built on) and no token
// vector.  A line it refuses is split and read by the checked LineReader
// path, the one source of error text.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cs::text {

/// Appends `v` exactly as printf("%.17g", v) prints it.
void append_double(std::string& out, double v);

/// `v` as append_double prints it.
std::string format_double(double v);

/// The whole of `tok` as a double: an optional '-', then decimal digits
/// with an optional fraction and exponent, or inf/infinity.  Anything
/// else — a leading '+' or blank, hex, NaN, trailing characters — and
/// values out of range (overflow to ±inf, or underflow to zero) give
/// nullopt.  The one number grammar of the formats and the tools' flags.
std::optional<double> parse_number(std::string_view tok);
/// The whole of `tok` as an unsigned decimal integer (digits only, no
/// sign); anything else and overflow give nullopt.
std::optional<std::uint64_t> parse_u64(std::string_view tok);
/// parse_u64(tok) when it fits a 32-bit processor id, else nullopt: an id
/// of 2^32 or more is refused before it could narrow onto a valid one.
std::optional<std::uint32_t> parse_id(std::string_view tok);

/// The cursor forms of the three parsers: read the number that starts at
/// `first` and may be followed by more text before `last`, with the same
/// grammar and range rules.  Return one past the number's last character,
/// or nullptr (and `v` unspecified) when none is read.  The whole-token
/// parsers are these with the end required at the token's end.
const char* read_number(const char* first, const char* last, double& v);
const char* read_u64(const char* first, const char* last, std::uint64_t& v);
const char* read_id(const char* first, const char* last, std::uint32_t& v);

/// In-place reader of one line's whitespace-separated fields, left to
/// right.  Each read skips the whitespace run before its field; a number
/// read must take the whole field.  A read that finds no field, or a field
/// the grammar refuses, returns false and leaves the cursor unspecified:
/// the caller then hands the line to the checked path.  Never throws.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next field; empty when none is left.
  std::string_view word();
  bool number(double& v);
  bool u64(std::uint64_t& v);
  bool id(std::uint32_t& v);
  /// True when nothing but whitespace is left.
  bool done();

 private:
  void skip_space();
  /// True when `stop` (a parser's end, or nullptr) closes a whole field.
  bool ends_field(const char* stop);

  const char* p_;
  const char* end_;
};

/// Line-by-line reader of a text document.  Each advance reads one line
/// into a reused buffer and splits it at ASCII whitespace; tokens are views
/// into that buffer and are invalidated by the next advance.  Errors throw
/// cs::Error("<context> at line <n>: <what>").
class LineReader {
 public:
  LineReader(std::istream& is, std::string context);

  /// Advances to the next line that is neither blank nor a '#' comment;
  /// false at end of input.
  bool next();
  /// Advances to the next line, whatever it holds; false at end of input.
  bool next_raw();
  /// next() without the split: the line is there for an in-place read
  /// (Fields over line()) and size() is 0 until split() runs.
  bool next_unsplit();
  /// Splits the current line into tokens.
  void split();

  const std::string& line() const { return line_; }
  std::size_t line_no() const { return line_no_; }
  std::size_t size() const { return tokens_.size(); }
  std::string_view operator[](std::size_t i) const { return tokens_[i]; }
  /// True when the line's tokens are exactly `words` (single-spaced).
  bool is(std::string_view words) const;

  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void fail_at(std::size_t line_no, const std::string& what) const;

  /// parse_number(tok), or fail as "bad number '<tok>'".
  double number(std::string_view tok) const;
  /// parse_u64(tok), or fail as "bad unsigned integer '<tok>'".
  std::uint64_t u64(std::string_view tok) const;
  /// parse_id(tok), or fail as "bad processor id '<tok>'".
  std::uint32_t id(std::string_view tok) const;
  /// u64(tok) for a count that sizes memory before the lines it counts
  /// arrive: a value above `limit` fails as
  /// "count '<tok>' exceeds the limit <limit>".
  std::uint64_t count(std::string_view tok, std::uint64_t limit) const;

 private:
  std::istream& is_;
  std::string context_;
  std::string line_;
  std::vector<std::string_view> tokens_;
  std::size_t line_no_{0};
};

/// Text output for the line-based writers.  Over a stream, appends go into
/// one reused chunk of at most kChunkBytes that reaches the stream through
/// os.write when it would overflow and on flush(); a longer piece is written
/// on its own.  Call flush() when done.  Over a string, appends go straight
/// into it.
class Writer {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  explicit Writer(std::ostream& os);
  explicit Writer(std::string& out) : out_(out) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& operator<<(std::string_view s);
  Writer& operator<<(char c);
  Writer& operator<<(double v);
  template <std::unsigned_integral U>
  Writer& operator<<(U v) {
    return put_u64(v);
  }

  /// Hands the buffered chunk to the stream; no-op over a string.
  void flush();

 private:
  Writer& put_u64(std::uint64_t v);
  void make_room(std::size_t n);

  std::ostream* os_{nullptr};
  std::string chunk_;
  std::string& out_;
};

}  // namespace cs::text
