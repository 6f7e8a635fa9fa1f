#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::util {
namespace {

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("hello", "world"));
  EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(StringUtilTest, ParseSize) {
  EXPECT_EQ(parse_size("42"), 42u);
  EXPECT_EQ(parse_size("  42 "), 42u);
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_THROW((void)parse_size("-3"), ParseError);
  EXPECT_THROW((void)parse_size("abc"), ParseError);
  EXPECT_THROW((void)parse_size("12x"), ParseError);
  EXPECT_THROW((void)parse_size(""), ParseError);
}

TEST(StringUtilTest, ParseFlagSize) {
  EXPECT_EQ(parse_flag_size("-t", "4", kMaxFlagThreads), 4u);
  EXPECT_EQ(parse_flag_size("-t", "0", kMaxFlagThreads), 0u);
  EXPECT_EQ(parse_flag_size("-t", "1024", kMaxFlagThreads), 1024u);
  EXPECT_EQ(parse_flag_size("--port", "65535", kMaxFlagPort), 65535u);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parse_flag_size("--queue", std::to_string(kMax)), kMax);
  // Every error names the flag: a non-number or a negative is a
  // ParseError, a value above the limit an InvalidArgument.
  const auto message = [](auto&& parse) -> std::string {
    try {
      parse();
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  for (const char* bad : {"-1", "abc", "", "4x", "1e3",
                          "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_flag_size("--workers", bad), ParseError);
    EXPECT_NE(message([&] { (void)parse_flag_size("--workers", bad); })
                  .find("--workers"),
              std::string::npos);
  }
  EXPECT_THROW((void)parse_flag_size("-t", "1025", kMaxFlagThreads),
               InvalidArgument);
  EXPECT_THROW((void)parse_flag_size("-t", "100000", kMaxFlagThreads),
               InvalidArgument);
  EXPECT_THROW((void)parse_flag_size("--port", "70000", kMaxFlagPort),
               InvalidArgument);
  EXPECT_NE(message([] {
              (void)parse_flag_size("--clients", "5000", kMaxFlagThreads);
            }).find("--clients"),
            std::string::npos);
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_THROW((void)parse_double("nope"), ParseError);
  EXPECT_THROW((void)parse_double("1.2.3"), ParseError);
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(TableTest, AlignsColumns) {
  TextTable t({"Algorithm", "n", "Time(m)"});
  t.add_row({"DS", "144", "3.31"});
  t.add_row({"BFHRF8", "144", "0.04"});
  const std::string s = t.to_string();
  std::istringstream in(s);
  std::string line1;
  std::string line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_NE(line1.find("Algorithm"), std::string::npos);
  EXPECT_EQ(line2.find_first_not_of('-'), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), InvalidArgument);
}

TEST(MemoryTest, RssReadable) {
  // On Linux both must be positive. Read current first: the peak is
  // monotone, so peak(now) >= rss(earlier) even if the process grows
  // between the two /proc reads.
  const std::size_t cur = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(cur, 0u);
  EXPECT_GE(peak, cur);
}

TEST(MemoryTest, BytesToMb) {
  EXPECT_DOUBLE_EQ(bytes_to_mb(1024 * 1024), 1.0);
  EXPECT_DOUBLE_EQ(bytes_to_mb(0), 0.0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  // Burn a little CPU.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) {
    x = x + 1e-9;
  }
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), 0.0);
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace bfhrf::util
