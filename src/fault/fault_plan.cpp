#include "fault/fault_plan.hpp"

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/number_parse.hpp"

namespace pds {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDown: return "down";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kStall: return "stall";
    case FaultKind::kLoss: return "loss";
  }
  return "?";
}

bool is_target_pattern(const std::string& pattern) {
  return !pattern.empty() && pattern.back() == '*';
}

bool target_pattern_matches(const std::string& pattern,
                            const std::string& name) {
  if (!is_target_pattern(pattern)) return pattern == name;
  const std::size_t prefix_len = pattern.size() - 1;
  return name.compare(0, prefix_len, pattern, 0, prefix_len) == 0;
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("fault plan line " + std::to_string(line_no) +
                              ": " + msg);
}

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

double to_number(const std::string& raw, std::size_t line_no) {
  const ParsedNumber n = parse_finite(raw);
  if (n.error != nullptr) fail(line_no, std::string(n.error) + ": " + raw);
  return n.value;
}

// key=value options after the positional tokens (same idiom as the
// scenario parser in net/scenario.cpp).
class Options {
 public:
  Options(const std::vector<std::string>& tokens, std::size_t first,
          std::size_t line_no)
      : line_no_(line_no) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto& tok = tokens[i];
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail(line_no, "expected key=value, got " + tok);
      }
      values_[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }

  std::optional<std::string> take(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    std::string v = it->second;
    values_.erase(it);
    return v;
  }

  double number(const std::string& key) {
    auto v = take(key);
    if (!v) fail(line_no_, "missing required option " + key + "=...");
    return to_number(*v, line_no_);
  }

  void finish() const {
    if (!values_.empty()) {
      fail(line_no_, "unknown option " + values_.begin()->first);
    }
  }

 private:
  std::size_t line_no_;
  std::map<std::string, std::string> values_;
};

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  bool saw_seed = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const auto& kind = tokens[0];

    if (kind == "seed") {
      if (saw_seed) fail(line_no, "duplicate seed directive");
      if (tokens.size() != 2) fail(line_no, "seed takes exactly one value");
      saw_seed = true;
      const double v = to_number(tokens[1], line_no);
      if (!is_seed(v)) fail(line_no, kSeedRangeError);
      plan.seed = static_cast<std::uint64_t>(v);
      continue;
    }

    FaultEpisode ep;
    if (kind == "down") {
      ep.kind = FaultKind::kDown;
    } else if (kind == "degrade") {
      ep.kind = FaultKind::kDegrade;
    } else if (kind == "stall") {
      ep.kind = FaultKind::kStall;
    } else if (kind == "loss") {
      ep.kind = FaultKind::kLoss;
    } else {
      fail(line_no, "unknown directive " + kind);
    }
    if (tokens.size() < 2 || tokens[1].find('=') != std::string::npos) {
      fail(line_no, kind + " needs a target name (or *)");
    }
    ep.target = tokens[1];
    ep.line = line_no;

    Options opts(tokens, 2, line_no);
    ep.at = opts.number("at");
    if (ep.at < 0.0) fail(line_no, "at must be non-negative");
    ep.duration = opts.number("for");
    if (ep.duration <= 0.0) fail(line_no, "for must be positive");
    switch (ep.kind) {
      case FaultKind::kDown: {
        const auto mode = opts.take("mode").value_or("drop");
        if (mode == "drop") {
          ep.mode = OutageMode::kDropArrivals;
        } else if (mode == "hold") {
          ep.mode = OutageMode::kHoldArrivals;
        } else {
          fail(line_no, "mode must be drop or hold, got " + mode);
        }
        break;
      }
      case FaultKind::kDegrade:
        ep.factor = opts.number("factor");
        if (ep.factor <= 0.0 || ep.factor >= 1.0) {
          fail(line_no, "factor must be in (0, 1)");
        }
        break;
      case FaultKind::kStall:
        break;
      case FaultKind::kLoss:
        ep.rate = opts.number("rate");
        if (ep.rate <= 0.0 || ep.rate > 1.0) {
          fail(line_no, "rate must be in (0, 1]");
        }
        break;
    }
    opts.finish();
    plan.episodes.push_back(std::move(ep));
  }
  return plan;
}

}  // namespace pds
