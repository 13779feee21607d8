#include "common/text.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace cs {
namespace {

TEST(TextCodec, AppendDoubleMatchesPrintfG17) {
  // The writers' output bytes are pinned by goldens and by the CLI and lab
  // report tests; to_chars(general, 17) must print what %.17g printed.
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1e16, 1e17, 1e-5, 1e-4, 0.1, 123456789012345678.0};
  std::mt19937_64 rng(17);
  for (int i = 0; i < 200000; ++i)
    values.push_back(std::bit_cast<double>(static_cast<std::uint64_t>(rng())));

  for (const double v : values) {
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    std::string got = "x";
    text::append_double(got, v);
    ASSERT_EQ(got, std::string("x") + expected)
        << "bits " << std::bit_cast<std::uint64_t>(v);
  }
}

/// Records the size of every write it receives.
class CountingBuf : public std::stringbuf {
 public:
  std::vector<std::streamsize> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.push_back(n);
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(TextWriter, ChunksStayWithinTheLimitAndKeepEveryByte) {
  CountingBuf buf;
  std::ostream os(&buf);
  std::string expected;
  {
    text::Writer w(os);
    for (std::uint64_t i = 0; i < 20000; ++i) {
      w << "line " << i << ' ' << 0.1 * static_cast<double>(i) << '\n';
      expected += "line " + std::to_string(i) + ' ' +
                  text::format_double(0.1 * static_cast<double>(i)) + '\n';
    }
    const std::string big(3 * text::Writer::kChunkBytes, 'z');
    w << big;
    expected += big;
    w << "tail\n";
    expected += "tail\n";
    w.flush();
  }
  EXPECT_EQ(buf.str(), expected);
  ASSERT_GT(buf.writes.size(), 3u);
  for (std::size_t i = 0; i < buf.writes.size(); ++i) {
    const bool is_big = buf.writes[i] == 3 * text::Writer::kChunkBytes;
    if (!is_big) {
      EXPECT_LE(buf.writes[i], text::Writer::kChunkBytes) << "write " << i;
    }
  }
}

}  // namespace
}  // namespace cs
