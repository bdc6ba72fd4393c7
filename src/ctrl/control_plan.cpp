#include "ctrl/control_plan.hpp"

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/number_parse.hpp"

namespace pds {

std::string to_string(ControlKind kind) {
  switch (kind) {
    case ControlKind::kRetune: return "retune";
    case ControlKind::kClass: return "class";
    case ControlKind::kSwap: return "swap";
    case ControlKind::kShed: return "shed";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("control plan line " + std::to_string(line_no) +
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

// Comma-separated list of doubles ("1,3,6,12"), for w=.
std::vector<double> to_number_list(const std::string& raw,
                                   std::size_t line_no) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const auto comma = raw.find(',', start);
    const auto end = comma == std::string::npos ? raw.size() : comma;
    if (end == start) fail(line_no, "malformed number list: " + raw);
    values.push_back(to_number(raw.substr(start, end - start), line_no));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

// key=value options after the positional tokens (same idiom as the fault
// plan and scenario parsers).
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

ClassId to_class_index(double v, std::size_t line_no) {
  if (v < 0.0 || v != static_cast<double>(static_cast<ClassId>(v))) {
    fail(line_no, "class index must be a non-negative integer");
  }
  return static_cast<ClassId>(v);
}

}  // namespace

ControlPlan parse_control_plan(const std::string& text) {
  ControlPlan plan;
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

    ControlEpisode ep;
    if (kind == "retune") {
      ep.kind = ControlKind::kRetune;
    } else if (kind == "class") {
      ep.kind = ControlKind::kClass;
    } else if (kind == "swap") {
      ep.kind = ControlKind::kSwap;
    } else if (kind == "shed") {
      ep.kind = ControlKind::kShed;
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
    switch (ep.kind) {
      case ControlKind::kRetune: {
        const auto w = opts.take("w");
        const auto g = opts.take("g");
        if (!w && !g) fail(line_no, "retune needs w=... and/or g=...");
        if (w) {
          ep.weights = to_number_list(*w, line_no);
          if (ep.weights.size() < 2) {
            fail(line_no, "w needs at least two values");
          }
          for (std::size_t i = 0; i < ep.weights.size(); ++i) {
            if (ep.weights[i] <= 0.0) fail(line_no, "w values must be positive");
            if (i > 0 && ep.weights[i] < ep.weights[i - 1]) {
              fail(line_no, "w values must be non-decreasing");
            }
          }
        }
        if (g) {
          ep.g = to_number(*g, line_no);
          if (ep.g <= 0.0 || ep.g > 1.0) fail(line_no, "g must be in (0, 1]");
        }
        break;
      }
      case ControlKind::kClass: {
        const auto drain = opts.take("drain");
        const auto add = opts.take("add");
        if (static_cast<bool>(drain) == static_cast<bool>(add)) {
          fail(line_no, "class needs exactly one of drain=<idx> or add=<idx>");
        }
        ep.drain = static_cast<bool>(drain);
        ep.cls = to_class_index(to_number(drain ? *drain : *add, line_no),
                                line_no);
        break;
      }
      case ControlKind::kSwap: {
        const auto sched = opts.take("sched");
        if (!sched) fail(line_no, "missing required option sched=...");
        try {
          ep.sched = scheduler_kind_from_string(*sched);
        } catch (const std::invalid_argument&) {
          fail(line_no, "unknown scheduler " + *sched);
        }
        if (ep.sched == SchedulerKind::kFcfs ||
            ep.sched == SchedulerKind::kScfq ||
            ep.sched == SchedulerKind::kVirtualClock) {
          // Only the class-based schedulers can adopt a live backlog.
          fail(line_no, "swap sched must be one of sp|wtp|bpr|additive|pad|"
                        "hpd|drr, got " + *sched);
        }
        break;
      }
      case ControlKind::kShed: {
        ep.duration = opts.number("for");
        if (ep.duration <= 0.0) fail(line_no, "for must be positive");
        const double wm = opts.number("watermark");
        if (wm < 1.0) fail(line_no, "watermark must be >= 1");
        ep.shed.watermark_packets = static_cast<std::uint64_t>(wm);
        if (const auto sojourn = opts.take("sojourn")) {
          ep.shed.sojourn = to_number(*sojourn, line_no);
          if (ep.shed.sojourn <= 0.0) fail(line_no, "sojourn must be positive");
        }
        if (const auto classes = opts.take("classes")) {
          const double k = to_number(*classes, line_no);
          if (k < 1.0 || k != static_cast<double>(static_cast<std::uint32_t>(k))) {
            fail(line_no, "classes must be a positive integer");
          }
          ep.shed.classes = static_cast<std::uint32_t>(k);
        }
        break;
      }
    }
    opts.finish();
    plan.episodes.push_back(std::move(ep));
  }
  return plan;
}

}  // namespace pds
