#include "common/text.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace cs::text {
namespace {

// The characters std::isspace accepts in the "C" locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Longest %.17g rendition of a double: "-2.2250738585072014e-308".
constexpr std::size_t kMaxDoubleChars = 24;
constexpr std::size_t kMaxU64Chars = 20;

}  // namespace

void append_double(std::string& out, double v) {
  char buf[kMaxDoubleChars];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

const char* read_number(const char* first, const char* last, double& v) {
  const auto [ptr, ec] =
      std::from_chars(first, last, v, std::chars_format::general);
  if (ec != std::errc{} || std::isnan(v)) return nullptr;
  return ptr;
}

const char* read_u64(const char* first, const char* last, std::uint64_t& v) {
  const auto [ptr, ec] = std::from_chars(first, last, v);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* read_id(const char* first, const char* last, std::uint32_t& v) {
  std::uint64_t wide = 0;
  const char* const end = read_u64(first, last, wide);
  if (end == nullptr || wide > std::numeric_limits<std::uint32_t>::max())
    return nullptr;
  v = static_cast<std::uint32_t>(wide);
  return end;
}

namespace {

/// `read` over the whole of `tok`, or nullopt.
template <class T>
std::optional<T> parse_whole(std::string_view tok,
                             const char* (*read)(const char*, const char*,
                                                 T&)) {
  T v{};
  const char* const end = tok.data() + tok.size();
  const char* const stop = read(tok.data(), end, v);
  if (stop == nullptr || stop != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<double> parse_number(std::string_view tok) {
  return parse_whole(tok, read_number);
}

std::optional<std::uint64_t> parse_u64(std::string_view tok) {
  return parse_whole(tok, read_u64);
}

std::optional<std::uint32_t> parse_id(std::string_view tok) {
  return parse_whole(tok, read_id);
}

void Fields::skip_space() {
  while (p_ != end_ && is_space(*p_)) ++p_;
}

bool Fields::ends_field(const char* stop) {
  if (stop == nullptr || (stop != end_ && !is_space(*stop))) return false;
  p_ = stop;
  return true;
}

std::string_view Fields::word() {
  skip_space();
  const char* const start = p_;
  while (p_ != end_ && !is_space(*p_)) ++p_;
  return {start, static_cast<std::size_t>(p_ - start)};
}

bool Fields::number(double& v) {
  skip_space();
  return ends_field(read_number(p_, end_, v));
}

bool Fields::u64(std::uint64_t& v) {
  skip_space();
  return ends_field(read_u64(p_, end_, v));
}

bool Fields::id(std::uint32_t& v) {
  skip_space();
  return ends_field(read_id(p_, end_, v));
}

bool Fields::done() {
  skip_space();
  return p_ == end_;
}

LineReader::LineReader(std::istream& is, std::string context)
    : is_(is), context_(std::move(context)) {}

bool LineReader::next_raw() {
  tokens_.clear();
  if (!std::getline(is_, line_)) return false;
  ++line_no_;
  split();
  return true;
}

bool LineReader::next_unsplit() {
  tokens_.clear();
  while (std::getline(is_, line_)) {
    ++line_no_;
    const auto first = std::find_if_not(line_.begin(), line_.end(), is_space);
    if (first != line_.end() && *first != '#') return true;
  }
  return false;
}

void LineReader::split() {
  tokens_.clear();
  const char* p = line_.data();
  const char* const end = p + line_.size();
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    while (p != end && !is_space(*p)) ++p;
    tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
  }
}

bool LineReader::next() {
  if (!next_unsplit()) return false;
  split();
  return true;
}

bool LineReader::is(std::string_view words) const {
  std::size_t i = 0;
  for (std::size_t pos = 0; pos <= words.size(); ++i) {
    const std::size_t end = std::min(words.find(' ', pos), words.size());
    if (i == tokens_.size() || tokens_[i] != words.substr(pos, end - pos))
      return false;
    pos = end + 1;
  }
  return i == tokens_.size();
}

void LineReader::fail(const std::string& what) const {
  fail_at(line_no_, what);
}

void LineReader::fail_at(std::size_t line_no, const std::string& what) const {
  throw Error(context_ + " at line " + std::to_string(line_no) + ": " + what);
}

double LineReader::number(std::string_view tok) const {
  const std::optional<double> v = parse_number(tok);
  if (!v) fail("bad number '" + std::string(tok) + "'");
  return *v;
}

std::uint64_t LineReader::u64(std::string_view tok) const {
  const std::optional<std::uint64_t> v = parse_u64(tok);
  if (!v) fail("bad unsigned integer '" + std::string(tok) + "'");
  return *v;
}

std::uint32_t LineReader::id(std::string_view tok) const {
  const std::optional<std::uint32_t> v = parse_id(tok);
  if (!v) fail("bad processor id '" + std::string(tok) + "'");
  return *v;
}

std::uint64_t LineReader::count(std::string_view tok,
                                std::uint64_t limit) const {
  const std::uint64_t v = u64(tok);
  if (v > limit)
    fail("count '" + std::string(tok) + "' exceeds the limit " +
         std::to_string(limit));
  return v;
}

Writer::Writer(std::ostream& os) : os_(&os), out_(chunk_) {
  chunk_.reserve(kChunkBytes);
}

Writer& Writer::operator<<(std::string_view s) {
  if (os_ != nullptr && s.size() > kChunkBytes) {
    flush();
    os_->write(s.data(), static_cast<std::streamsize>(s.size()));
    return *this;
  }
  make_room(s.size());
  out_.append(s);
  return *this;
}

Writer& Writer::operator<<(char c) {
  make_room(1);
  out_.push_back(c);
  return *this;
}

Writer& Writer::operator<<(double v) {
  make_room(kMaxDoubleChars);
  append_double(out_, v);
  return *this;
}

Writer& Writer::put_u64(std::uint64_t v) {
  make_room(kMaxU64Chars);
  char buf[kMaxU64Chars];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  return *this;
}

void Writer::make_room(std::size_t n) {
  if (os_ != nullptr && chunk_.size() + n > kChunkBytes) flush();
}

void Writer::flush() {
  if (os_ == nullptr || chunk_.empty()) return;
  os_->write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  chunk_.clear();
}

}  // namespace cs::text
