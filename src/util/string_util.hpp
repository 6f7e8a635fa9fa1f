// Small string helpers shared by the Newick parser and the CLI tools.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace bfhrf::util {

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on a delimiter character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// Parse a non-negative integer; throws bfhrf::ParseError on failure.
[[nodiscard]] std::size_t parse_size(std::string_view s);

/// Most threads, workers or clients one command-line flag may ask for.
inline constexpr std::size_t kMaxFlagThreads = 1024;

/// Largest value a TCP port flag takes.
inline constexpr std::size_t kMaxFlagPort = 65535;

/// Parse the value of a command-line flag that sizes threads, queues,
/// batches or sockets: parse_size, with `flag` named in every error. A
/// non-number or a negative throws bfhrf::ParseError; a value above `max`
/// throws bfhrf::InvalidArgument. Tools call it while they read their
/// arguments, so a bad value fails before any file, socket or thread opens.
[[nodiscard]] std::size_t parse_flag_size(
    std::string_view flag, std::string_view value,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// Parse a double; throws bfhrf::ParseError on failure.
[[nodiscard]] double parse_double(std::string_view s);

/// Render a double with fixed precision (bench tables, CLI output).
[[nodiscard]] std::string format_fixed(double v, int precision);

}  // namespace bfhrf::util
