// Strict parsing of real numbers from the command line. Unlike std::atof,
// which reads "abc" as 0, "12x" as 12 and "nan" as NaN, parse_double
// rejects all three; the companion of core/parse_uint.hpp.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace gsight::core {

/// The least positive double: as parse_double's `min`, it admits exactly
/// the values > 0.
inline constexpr double kLeastPositive =
    std::numeric_limits<double>::denorm_min();

/// `text` as a finite decimal number in [min, max], or nullopt when it is
/// empty, holds any character past the number (a leading '+' or blank
/// included), is NaN or infinite, overflows a double, or falls outside
/// the bounds.
inline std::optional<double> parse_double(
    std::string_view text, double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace gsight::core
