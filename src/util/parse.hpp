#pragma once
//
// Strict number parsing for command-line flags and environment variables.
//
// The whole string must be the number: "abc", "8x", " 8" and "" are
// rejected instead of reading as 0 (atoi/atol/atof), which would silently
// turn a typo into "shed every request" or "cache off".
//
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace cmesolve::util {

/// A whole unsigned decimal integer in [min, max], or nullopt.
[[nodiscard]] inline std::optional<std::uint64_t> parse_count(
    std::string_view s, std::uint64_t min, std::uint64_t max) noexcept {
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size() ||
      n < min || n > max) {
    return std::nullopt;
  }
  return n;
}

/// A whole finite decimal floating-point number in [min, max], or nullopt.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view s,
                                                      double min,
                                                      double max) noexcept {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size() ||
      !std::isfinite(v) || v < min || v > max) {
    return std::nullopt;
  }
  return v;
}

}  // namespace cmesolve::util
