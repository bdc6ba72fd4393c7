// One parser for the line-oriented directive grammars: scenario files
// (net/scenario.hpp), fault plans (fault/fault_plan.hpp) and control plans
// (ctrl/control_plan.hpp).
//
// A file is read line by line. '#' starts a comment that runs to the end of
// its line, and blank lines are skipped. A directive line is whitespace-
// separated tokens: the directive name, positional tokens, then key=value
// options and, where a grammar allows them, bare flags. A key or flag may
// appear once per line; an empty key ("=5") is malformed.
//
// Numbers are strict: a token is a number only if std::stod consumes all of
// it and the value is finite, so "1e999", "inf" and "nan" are rejected like
// "ten". Integer fields go through Directive::integer, a range-checked
// conversion, never a truncating or undefined cast.
//
// Every error is a std::invalid_argument prefixed "<grammar> line N: ", so
// the same malformed token gets the same message in every grammar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pds {

// Upper bounds for Directive::integer: any 32-bit count or index, and the
// largest integer range a double holds exactly (seeds, packet counts).
inline constexpr std::uint64_t kMaxU32 =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

// Throws std::invalid_argument("<grammar> line N: <msg>"): the one error
// form of every grammar, also for checks that run after the line loop.
[[noreturn]] void fail_line(const std::string& grammar, std::size_t line,
                            const std::string& msg);

// One non-blank line of a grammar, with the checks every grammar shares.
class Directive {
 public:
  Directive(const std::string& grammar, std::size_t line,
            std::vector<std::string> tokens);

  std::size_t line() const noexcept { return line_; }
  std::size_t size() const noexcept { return tokens_.size(); }
  const std::string& operator[](std::size_t i) const { return tokens_[i]; }
  const std::string& name() const { return tokens_.front(); }

  // fail_line for this directive's grammar and line.
  [[noreturn]] void fail(const std::string& msg) const;

  // A finite number, or a line error naming `raw`.
  double number(const std::string& raw) const;

  // Comma-separated numbers ("1,2,4,8"); an empty element is an error
  // naming `key`.
  std::vector<double> numbers(const std::string& raw,
                              const std::string& key) const;

  // `v` as an integer in [lo, hi]. A fraction or an out-of-range value
  // fails with "<what> must be a positive integer", "... a non-negative
  // integer" (hi == kMaxU32) or "... an integer in [lo, hi]".
  std::uint64_t integer(double v, std::uint64_t lo, std::uint64_t hi,
                        const std::string& what) const;

 private:
  std::string grammar_;
  std::size_t line_;
  std::vector<std::string> tokens_;
};

// Calls `visit` for every non-blank line of `text`, numbered from 1.
void for_each_directive(const std::string& text, const std::string& grammar,
                        const std::function<void(const Directive&)>& visit);

// The key=value options (and bare flags, when allowed) of a directive from
// token `first` on. Each accessor consumes what it reads; finish() rejects
// whatever is left.
class Options {
 public:
  enum class Flags { kRejected, kAllowed };

  Options(const Directive& directive, std::size_t first,
          Flags flags = Flags::kRejected);

  bool flag(const std::string& name);
  std::optional<std::string> take(const std::string& key);
  std::string require(const std::string& key);
  double number(const std::string& key);
  double number_or(const std::string& key, double def);
  std::vector<double> list(const std::string& key);
  std::uint64_t integer(const std::string& key, std::uint64_t lo,
                        std::uint64_t hi);
  std::uint64_t integer_or(const std::string& key, std::uint64_t def,
                           std::uint64_t lo, std::uint64_t hi);
  void finish() const;

 private:
  const Directive& d_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
};

// The skeleton the clock-driven plan grammars (fault and control plans)
// share: at most one `seed <n>` line, and episode lines headed
//
//   <kind> <target> at=<t> [key=value ...]
//
// where <kind> is one of `kinds`. parse_plan runs the line loop, the seed
// directive and the head, hands each episode to `episode` to read its own
// options, then rejects any option left over. Returns the seed (1 when the
// plan has none).
struct EpisodeHead {
  std::size_t kind = 0;  // index into `kinds`
  std::string target;
  double at = 0.0;
};
std::uint64_t parse_plan(
    const std::string& text, const std::string& grammar,
    const std::vector<std::string>& kinds,
    const std::function<void(const Directive&, const EpisodeHead&, Options&)>&
        episode);

}  // namespace pds
