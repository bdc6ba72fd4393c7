#include "ctrl/control_plan.hpp"

#include <stdexcept>

#include "util/directive.hpp"

namespace pds {

namespace {

// Directive names, indexed by ControlKind.
const std::vector<std::string>& kind_names() {
  static const std::vector<std::string> kNames{"retune", "class", "swap",
                                               "shed"};
  return kNames;
}

void parse_retune(ControlEpisode& ep, const Directive& d, Options& opts) {
  const auto w = opts.take("w");
  const auto g = opts.take("g");
  if (!w && !g) d.fail("retune needs w=... and/or g=...");
  if (w) {
    ep.weights = d.numbers(*w, "w");
    if (ep.weights.size() < 2) d.fail("w needs at least two values");
    for (std::size_t i = 0; i < ep.weights.size(); ++i) {
      if (ep.weights[i] <= 0.0) d.fail("w values must be positive");
      if (i > 0 && ep.weights[i] < ep.weights[i - 1]) {
        d.fail("w values must be non-decreasing");
      }
    }
  }
  if (g) {
    ep.g = d.number(*g);
    if (ep.g <= 0.0 || ep.g > 1.0) d.fail("g must be in (0, 1]");
  }
}

void parse_class(ControlEpisode& ep, const Directive& d, Options& opts) {
  const auto drain = opts.take("drain");
  const auto add = opts.take("add");
  if (static_cast<bool>(drain) == static_cast<bool>(add)) {
    d.fail("class needs exactly one of drain=<idx> or add=<idx>");
  }
  ep.drain = static_cast<bool>(drain);
  ep.cls = static_cast<ClassId>(
      d.integer(d.number(drain ? *drain : *add), 0, kMaxU32, "class index"));
}

void parse_swap(ControlEpisode& ep, const Directive& d, Options& opts) {
  const std::string sched = opts.require("sched");
  try {
    ep.sched = scheduler_kind_from_string(sched);
  } catch (const std::invalid_argument&) {
    d.fail("unknown scheduler " + sched);
  }
  if (ep.sched == SchedulerKind::kFcfs || ep.sched == SchedulerKind::kScfq ||
      ep.sched == SchedulerKind::kVirtualClock) {
    // Only the class-based schedulers can adopt a live backlog.
    d.fail("swap sched must be one of sp|wtp|bpr|additive|pad|hpd|drr, got " +
           sched);
  }
}

void parse_shed(ControlEpisode& ep, const Directive& d, Options& opts) {
  ep.duration = opts.number("for");
  if (ep.duration <= 0.0) d.fail("for must be positive");
  const double watermark = opts.number("watermark");
  if (watermark < 1.0) d.fail("watermark must be >= 1");
  ep.shed.watermark_packets =
      d.integer(watermark, 1, kMaxExactInteger, "watermark");
  if (const auto sojourn = opts.take("sojourn")) {
    ep.shed.sojourn = d.number(*sojourn);
    if (ep.shed.sojourn <= 0.0) d.fail("sojourn must be positive");
  }
  ep.shed.classes = static_cast<std::uint32_t>(
      opts.integer_or("classes", ep.shed.classes, 1, kMaxU32));
}

}  // namespace

std::string to_string(ControlKind kind) {
  return kind_names()[static_cast<std::size_t>(kind)];
}

ControlPlan parse_control_plan(const std::string& text) {
  ControlPlan plan;
  plan.seed = parse_plan(
      text, "control plan", kind_names(),
      [&plan](const Directive& d, const EpisodeHead& head, Options& opts) {
        ControlEpisode ep;
        ep.kind = static_cast<ControlKind>(head.kind);
        ep.target = head.target;
        ep.at = head.at;
        ep.line = d.line();
        switch (ep.kind) {
          case ControlKind::kRetune: parse_retune(ep, d, opts); break;
          case ControlKind::kClass: parse_class(ep, d, opts); break;
          case ControlKind::kSwap: parse_swap(ep, d, opts); break;
          case ControlKind::kShed: parse_shed(ep, d, opts); break;
        }
        plan.episodes.push_back(std::move(ep));
      });
  return plan;
}

}  // namespace pds
