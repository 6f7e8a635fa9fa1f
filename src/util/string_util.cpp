#include "util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"

namespace bfhrf::util {

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

std::size_t parse_size(std::string_view s) {
  s = trim(s);
  std::size_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("expected a non-negative integer, got '" +
                     std::string(s) + "'");
  }
  return v;
}

std::size_t parse_flag_size(std::string_view flag, std::string_view value,
                            std::size_t max) {
  std::size_t v = 0;
  try {
    v = parse_size(value);
  } catch (const ParseError& e) {
    throw ParseError(std::string(flag) + ": " + e.what());
  }
  if (v > max) {
    throw InvalidArgument(std::string(flag) + ": " + std::to_string(v) +
                          " is above the limit of " + std::to_string(max));
  }
  return v;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("expected a number, got '" + std::string(s) + "'");
  }
  return v;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace bfhrf::util
