// Locale-free number text for the telemetry sinks.
//
// Every sink file (metrics series, violation logs, packet traces, run
// reports) prints numbers the way a std::ostream in its default state does:
// doubles as printf "%g" at precision 6 ("inf", "-nan" and all), integers in
// plain decimal. to_text() produces exactly those bytes through
// std::to_chars — no stream, no locale, no allocation — and TextAppender
// chains them onto a reused std::string with ostream-like `<<` syntax, so a
// sink renders a whole row or snapshot into one buffer and writes it once.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace pds {

// Room for the longest rendering of either kind ("-2.22507e-308" or
// "-9223372036854775808").
inline constexpr std::size_t kNumberTextMax = 24;

// Integer types an ostream prints as numbers (not bool, not characters).
template <class T>
concept PrintableInteger =
    std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char> &&
    !std::same_as<T, signed char> && !std::same_as<T, unsigned char>;

// Writes `v` at `first` (which has kNumberTextMax bytes of room) and returns
// one past the last byte written. chars_format::general with an explicit
// precision is specified as printf("%.6g") in the C locale, which is what
// operator<< emits for a double.
inline char* to_text(char* first, double v) noexcept {
  return std::to_chars(first, first + kNumberTextMax, v,
                       std::chars_format::general, 6)
      .ptr;
}

template <PrintableInteger T>
char* to_text(char* first, T v) noexcept {
  return std::to_chars(first, first + kNumberTextMax, v).ptr;
}

// `TextAppender(buf) << t << ',' << name << ',' << 42 << '\n'` appends what
// an ostream in its default state would print.
class TextAppender {
 public:
  explicit TextAppender(std::string& out) noexcept : out_(out) {}

  TextAppender& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  // Without it a string literal would pick the bool overload below.
  TextAppender& operator<<(const char* s) {
    out_.append(s);
    return *this;
  }
  TextAppender& operator<<(char c) {
    out_ += c;
    return *this;
  }
  TextAppender& operator<<(double v) { return number(v); }
  template <PrintableInteger T>
  TextAppender& operator<<(T v) {
    return number(v);
  }
  TextAppender& operator<<(bool) = delete;  // would silently print as 1/0

 private:
  template <class T>
  TextAppender& number(T v) {
    char buf[kNumberTextMax];
    out_.append(buf, to_text(buf, v));
    return *this;
  }

  std::string& out_;
};

}  // namespace pds
