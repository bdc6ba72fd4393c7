// Strict numbers for the line-oriented grammars (scenario files, fault
// plans, control plans).
//
// A token is a number only if std::stod consumes all of it and the value is
// finite: "1e999" (out of range), "inf" and "nan" are rejected like "ten".
// The result carries a reason instead of throwing, so each grammar reports
// it under its own "<grammar> line N:" prefix. The same holds for is_seed():
// a seed is an integer in [0, 2^53], the range a double holds exactly, so
// its conversion to std::uint64_t is always defined.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace pds {

struct ParsedNumber {
  double value = 0.0;
  const char* error = nullptr;  // null on success
};

inline ParsedNumber parse_finite(const std::string& raw) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(raw, &pos);
    if (pos != raw.size()) return {0.0, "malformed number"};
  } catch (const std::invalid_argument&) {
    return {0.0, "malformed number"};
  } catch (const std::out_of_range&) {
    return {0.0, "number out of range"};
  }
  if (!std::isfinite(v)) return {0.0, "number must be finite"};
  return {v, nullptr};
}

inline constexpr const char* kSeedRangeError =
    "seed must be an integer in [0, 2^53]";

inline bool is_seed(double v) {
  return v >= 0.0 && v <= 0x1p53 && v == std::floor(v);
}

}  // namespace pds
