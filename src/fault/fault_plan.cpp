#include "fault/fault_plan.hpp"

#include "util/directive.hpp"

namespace pds {

namespace {

// Directive names, indexed by FaultKind.
const std::vector<std::string>& kind_names() {
  static const std::vector<std::string> kNames{"down", "degrade", "stall",
                                               "loss"};
  return kNames;
}

}  // namespace

std::string to_string(FaultKind kind) {
  return kind_names()[static_cast<std::size_t>(kind)];
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

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  plan.seed = parse_plan(
      text, "fault plan", kind_names(),
      [&plan](const Directive& d, const EpisodeHead& head, Options& opts) {
        FaultEpisode ep;
        ep.kind = static_cast<FaultKind>(head.kind);
        ep.target = head.target;
        ep.at = head.at;
        ep.line = d.line();
        ep.duration = opts.number("for");
        if (ep.duration <= 0.0) d.fail("for must be positive");
        switch (ep.kind) {
          case FaultKind::kDown: {
            const auto mode = opts.take("mode").value_or("drop");
            if (mode == "drop") {
              ep.mode = OutageMode::kDropArrivals;
            } else if (mode == "hold") {
              ep.mode = OutageMode::kHoldArrivals;
            } else {
              d.fail("mode must be drop or hold, got " + mode);
            }
            break;
          }
          case FaultKind::kDegrade:
            ep.factor = opts.number("factor");
            if (ep.factor <= 0.0 || ep.factor >= 1.0) {
              d.fail("factor must be in (0, 1)");
            }
            break;
          case FaultKind::kStall:
            break;
          case FaultKind::kLoss:
            ep.rate = opts.number("rate");
            if (ep.rate <= 0.0 || ep.rate > 1.0) {
              d.fail("rate must be in (0, 1]");
            }
            break;
        }
        plan.episodes.push_back(std::move(ep));
      });
  return plan;
}

}  // namespace pds
