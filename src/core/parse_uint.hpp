// Strict parsing of unsigned integers from the command line and the
// environment. Unlike std::strtoul, which wraps "-1" to 2^64 - 1, reads
// "12x" as 12 and "abc" as 0, parse_uint rejects all three.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace gsight::core {

/// Largest thread, worker, client or replica count accepted from the
/// command line or the environment, and the largest total of serve worker
/// threads (replicas x workers per replica).
inline constexpr std::uint64_t kMaxThreads = 256;

/// `text` as a base-10 unsigned integer no greater than `max`, or nullopt
/// when it is empty, signed, holds any character other than a digit,
/// overflows 64 bits or exceeds `max`.
inline std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

}  // namespace gsight::core
