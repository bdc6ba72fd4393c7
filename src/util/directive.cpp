#include "util/directive.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pds {

void fail_line(const std::string& grammar, std::size_t line,
               const std::string& msg) {
  throw std::invalid_argument(grammar + " line " + std::to_string(line) +
                              ": " + msg);
}

namespace {

// Whitespace tokens of `line`, up to the first token that starts with '#'.
std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // trailing comment
    tokens.push_back(tok);
  }
  return tokens;
}

}  // namespace

Directive::Directive(const std::string& grammar, std::size_t line,
                     std::vector<std::string> tokens)
    : grammar_(grammar), line_(line), tokens_(std::move(tokens)) {}

void Directive::fail(const std::string& msg) const {
  fail_line(grammar_, line_, msg);
}

double Directive::number(const std::string& raw) const {
  const char* error = nullptr;
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(raw, &pos);
    if (pos != raw.size()) error = "malformed number";
  } catch (const std::invalid_argument&) {
    error = "malformed number";
  } catch (const std::out_of_range&) {
    error = "number out of range";
  }
  if (error == nullptr && !std::isfinite(v)) error = "number must be finite";
  if (error != nullptr) fail(std::string(error) + ": " + raw);
  return v;
}

std::vector<double> Directive::numbers(const std::string& raw,
                                       const std::string& key) const {
  std::vector<double> out;
  std::size_t start = 0;
  for (;;) {
    const auto comma = raw.find(',', start);
    const auto end = comma == std::string::npos ? raw.size() : comma;
    if (end == start) fail("empty element in " + key);
    out.push_back(number(raw.substr(start, end - start)));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

std::uint64_t Directive::integer(double v, std::uint64_t lo, std::uint64_t hi,
                                 const std::string& what) const {
  if (v >= static_cast<double>(lo) && v <= static_cast<double>(hi) &&
      v == std::floor(v)) {
    return static_cast<std::uint64_t>(v);
  }
  if (hi == kMaxU32 && lo <= 1) {
    fail(what + (lo == 1 ? " must be a positive integer"
                         : " must be a non-negative integer"));
  }
  fail(what + " must be an integer in [" + std::to_string(lo) + ", " +
       (hi == kMaxExactInteger ? "2^53" : std::to_string(hi)) + "]");
}

void for_each_directive(const std::string& text, const std::string& grammar,
                        const std::function<void(const Directive&)>& visit) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto tokens = tokenize(line);
    if (!tokens.empty()) visit(Directive(grammar, line_no, std::move(tokens)));
  }
}

Options::Options(const Directive& directive, std::size_t first, Flags flags)
    : d_(directive) {
  for (std::size_t i = first; i < d_.size(); ++i) {
    const std::string& tok = d_[i];
    const auto eq = tok.find('=');
    if (eq == 0 || (eq == std::string::npos && flags == Flags::kRejected)) {
      d_.fail("expected key=value, got " + tok);
    }
    if (eq == std::string::npos) {
      flags_.push_back(tok);  // a repeated flag is left over for finish()
    } else if (!values_.emplace(tok.substr(0, eq), tok.substr(eq + 1))
                    .second) {
      d_.fail("duplicate option " + tok.substr(0, eq));
    }
  }
}

bool Options::flag(const std::string& name) {
  for (auto it = flags_.begin(); it != flags_.end(); ++it) {
    if (*it == name) {
      flags_.erase(it);
      return true;
    }
  }
  return false;
}

std::optional<std::string> Options::take(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  std::string v = std::move(it->second);
  values_.erase(it);
  return v;
}

std::string Options::require(const std::string& key) {
  auto v = take(key);
  if (!v) d_.fail("missing required option " + key + "=...");
  return *v;
}

double Options::number(const std::string& key) {
  return d_.number(require(key));
}

double Options::number_or(const std::string& key, double def) {
  const auto v = take(key);
  return v ? d_.number(*v) : def;
}

std::vector<double> Options::list(const std::string& key) {
  return d_.numbers(require(key), key);
}

std::uint64_t Options::integer(const std::string& key, std::uint64_t lo,
                               std::uint64_t hi) {
  return d_.integer(number(key), lo, hi, key);
}

std::uint64_t Options::integer_or(const std::string& key, std::uint64_t def,
                                  std::uint64_t lo, std::uint64_t hi) {
  const auto v = take(key);
  return v ? d_.integer(d_.number(*v), lo, hi, key) : def;
}

void Options::finish() const {
  if (!values_.empty()) d_.fail("unknown option " + values_.begin()->first);
  if (!flags_.empty()) d_.fail("unknown flag " + flags_.front());
}

std::uint64_t parse_plan(
    const std::string& text, const std::string& grammar,
    const std::vector<std::string>& kinds,
    const std::function<void(const Directive&, const EpisodeHead&, Options&)>&
        episode) {
  std::uint64_t seed = 1;
  bool saw_seed = false;
  for_each_directive(text, grammar, [&](const Directive& d) {
    if (d.name() == "seed") {
      if (saw_seed) d.fail("duplicate seed directive");
      if (d.size() != 2) d.fail("seed takes exactly one value");
      saw_seed = true;
      seed = d.integer(d.number(d[1]), 0, kMaxExactInteger, "seed");
      return;
    }
    EpisodeHead head;
    while (head.kind < kinds.size() && kinds[head.kind] != d.name()) {
      ++head.kind;
    }
    if (head.kind == kinds.size()) d.fail("unknown directive " + d.name());
    if (d.size() < 2 || d[1].find('=') != std::string::npos) {
      d.fail(d.name() + " needs a target name (or *)");
    }
    head.target = d[1];
    Options opts(d, 2);
    head.at = opts.number("at");
    if (head.at < 0.0) d.fail("at must be non-negative");
    episode(d, head, opts);
    opts.finish();
  });
  return seed;
}

}  // namespace pds
