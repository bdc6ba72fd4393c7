#include "fault/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

#include <sstream>

#include "net/topology.hpp"
#include "obs/probe.hpp"
#include "obs/span.hpp"
#include "rng/rng.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

[[noreturn]] void bad_plan(const std::string& msg) {
  throw std::invalid_argument("fault plan: " + msg);
}

// SplitMix64 finalizer: decorrelates (plan seed, episode index) pairs into
// independent loss-burst streams.
std::uint64_t episode_seed(std::uint64_t plan_seed, std::uint64_t index) {
  std::uint64_t z = plan_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

void FaultInjector::attach(const std::string& name, Link& link) {
  PDS_CHECK(!armed_, "cannot attach targets after arm()");
  PDS_CHECK(!name.empty() && name != "*", "invalid target name");
  PDS_CHECK(links_.find(name) == links_.end(),
            "duplicate fault target " + name);
  PDS_CHECK(name.back() != '*', "target name may not end in *");
  links_[name] = &link;
  attach_order_.push_back(name);
}

void FaultInjector::attach(const std::string& name, LossyLink& lossy) {
  attach(name, lossy.link_mut());
  lossies_[name] = &lossy;
}

void FaultInjector::arm() {
  PDS_CHECK(!armed_, "fault injector armed twice");
  armed_ = true;

  // Expand wildcards over the attached targets. A bare `*` expands in name
  // order (the historical contract: loss-episode seeds depend on instance
  // order); prefix patterns expand in attach order (link-id order for
  // attach_network), so topology plans follow the topology's numbering.
  for (const auto& ep : plan_.episodes) {
    std::vector<std::string> targets;
    if (ep.target == "*") {
      for (const auto& [name, link] : links_) targets.push_back(name);
      if (targets.empty()) {
        bad_plan("line " + std::to_string(ep.line) +
                 ": episode targets *, nothing attached");
      }
    } else if (is_target_pattern(ep.target)) {
      for (const auto& name : attach_order_) {
        if (target_pattern_matches(ep.target, name)) targets.push_back(name);
      }
      if (targets.empty()) {
        bad_plan("line " + std::to_string(ep.line) + ": pattern " +
                 ep.target + " matches no attached target");
      }
    } else {
      if (links_.find(ep.target) == links_.end()) {
        bad_plan("line " + std::to_string(ep.line) + ": unknown target " +
                 ep.target);
      }
      targets.push_back(ep.target);
    }
    for (const auto& name : targets) {
      if (ep.kind == FaultKind::kLoss &&
          lossies_.find(name) == lossies_.end()) {
        bad_plan("line " + std::to_string(ep.line) +
                 ": loss episode targets " + name +
                 ", which is not a lossy link");
      }
      Instance inst;
      inst.episode = ep;
      inst.episode.target = name;
      inst.link = links_.at(name);
      const auto lossy = lossies_.find(name);
      inst.lossy = lossy == lossies_.end() ? nullptr : lossy->second;
      instances_.push_back(std::move(inst));
    }
  }

  // Same-kind episodes on one target must not overlap — their begin/end
  // boundaries would race for the same link state.
  for (std::size_t a = 0; a < instances_.size(); ++a) {
    for (std::size_t b = a + 1; b < instances_.size(); ++b) {
      const auto& ea = instances_[a].episode;
      const auto& eb = instances_[b].episode;
      if (ea.kind != eb.kind || ea.target != eb.target) continue;
      if (ea.at < eb.end() && eb.at < ea.end()) {
        // Name both offending plan lines: with wildcard expansion the pair
        // may come from distant lines, and "one side" is useless to fix.
        bad_plan("overlapping " + to_string(ea.kind) + " episodes on " +
                 ea.target + " (lines " +
                 std::to_string(std::min(ea.line, eb.line)) + " and " +
                 std::to_string(std::max(ea.line, eb.line)) + ")");
      }
    }
  }

  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const auto& ep = instances_[i].episode;
    PDS_CHECK(ep.at >= sim_.now(),
              "fault episode starts before the current simulation time");
    sim_.schedule_at(ep.at, SimEvent([this, i] { begin(i); }, "fault.begin"));
    sim_.schedule_at(ep.end(), SimEvent([this, i] { end(i); }, "fault.end"));
  }
}

void FaultInjector::set_span_buffer(SpanBuffer* buffer,
                                    double us_per_time_unit) {
#if PDS_OBS_ENABLED
  spans_ = buffer;
  span_scale_ = us_per_time_unit;
#else
  (void)buffer;
  (void)us_per_time_unit;
#endif
}

std::string FaultInjector::active_summary() const {
  std::string out;
  for (const Instance& inst : instances_) {
    if (!inst.active) continue;
    if (!out.empty()) out += '+';
    out.append(to_string(inst.episode.kind)).append(" ").append(
        inst.episode.target);
  }
  return out;
}

void FaultInjector::begin(std::size_t index) {
  Instance& inst = instances_[index];
  ++begun_;
  inst.active = true;
  switch (inst.episode.kind) {
    case FaultKind::kDown:
      inst.link->take_down(inst.episode.mode);
      break;
    case FaultKind::kDegrade:
      inst.link->set_capacity_factor(inst.episode.factor);
      break;
    case FaultKind::kStall:
      inst.link->stall();
      break;
    case FaultKind::kLoss:
      inst.lossy->set_burst_loss(
          inst.episode.rate,
          Rng(episode_seed(plan_.seed,
                           static_cast<std::uint64_t>(index))));
      break;
  }
}

void FaultInjector::end(std::size_t index) {
  Instance& inst = instances_[index];
  ++completed_;
  inst.active = false;
#if PDS_OBS_ENABLED
  if (spans_ != nullptr) {
    const FaultEpisode& ep = inst.episode;
    std::ostringstream args;
    args << "\"kind\":\"" << to_string(ep.kind) << "\",\"target\":\""
         << ep.target << "\"";
    spans_->emit(Span{ep.at * span_scale_,
                      (ep.end() - ep.at) * span_scale_, kSpanSimPid,
                      kSpanFaultTid, to_string(ep.kind) + " " + ep.target,
                      "fault", args.str()});
  }
#endif
  switch (inst.episode.kind) {
    case FaultKind::kDown:
      inst.link->bring_up();
      break;
    case FaultKind::kDegrade:
      inst.link->set_capacity_factor(1.0);
      break;
    case FaultKind::kStall:
      inst.link->resume();
      break;
    case FaultKind::kLoss:
      inst.lossy->clear_burst_loss();
      break;
  }
}

void attach_network(FaultInjector& injector, Network& net) {
  for (LinkId id = 0; id < net.num_links(); ++id) {
    if (LossyLink* lossy = net.lossy(id)) {
      injector.attach(net.link_name(id), *lossy);  // enables loss episodes
    } else {
      injector.attach(net.link_name(id), net.link_mut(id));
    }
  }
}

}  // namespace pds
