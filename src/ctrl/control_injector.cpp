#include "ctrl/control_injector.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "fault/fault_plan.hpp"  // target_pattern_matches
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/pad.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

[[noreturn]] void bad_plan(const std::string& msg) {
  throw std::invalid_argument("control plan: " + msg);
}

[[noreturn]] void bad_line(std::size_t line, const std::string& msg) {
  bad_plan("line " + std::to_string(line) + ": " + msg);
}

bool weight_capable(SchedulerKind kind) {
  return kind != SchedulerKind::kFcfs;
}

bool class_based(SchedulerKind kind) {
  return kind != SchedulerKind::kFcfs && kind != SchedulerKind::kScfq &&
         kind != SchedulerKind::kVirtualClock;
}

}  // namespace

ControlInjector::ControlInjector(Simulator& sim, ControlPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

void ControlInjector::attach(const std::string& name, Link& link,
                             SchedulerKind kind,
                             const SchedulerConfig& config) {
  PDS_CHECK(!armed_, "cannot attach targets after arm()");
  PDS_CHECK(!name.empty() && name != "*", "invalid target name");
  PDS_CHECK(name.back() != '*', "target name may not end in *");
  PDS_CHECK(targets_.find(name) == targets_.end(),
            "duplicate control target " + name);
  PDS_CHECK(config.num_classes() == link.scheduler().num_classes(),
            "config/scheduler class count mismatch");
  targets_[name] = Target{&link, kind, config};
  attach_order_.push_back(name);
}

void ControlInjector::arm() {
  PDS_CHECK(!armed_, "control injector armed twice");
  armed_ = true;

  // Expand wildcards over the attached targets — same contract as
  // FaultInjector: bare `*` in name order, prefix patterns in attach order.
  for (const auto& ep : plan_.episodes) {
    std::vector<std::string> names;
    if (ep.target == "*") {
      for (const auto& [name, target] : targets_) names.push_back(name);
      if (names.empty()) bad_plan("episode targets *, nothing attached");
    } else if (is_target_pattern(ep.target)) {
      for (const auto& name : attach_order_) {
        if (target_pattern_matches(ep.target, name)) names.push_back(name);
      }
      if (names.empty()) {
        bad_line(ep.line,
                 "pattern " + ep.target + " matches no attached target");
      }
    } else {
      if (targets_.find(ep.target) == targets_.end()) {
        bad_plan("unknown target " + ep.target);
      }
      names.push_back(ep.target);
    }
    for (const auto& name : names) {
      Instance inst;
      inst.episode = ep;
      inst.episode.target = name;
      inst.target = &targets_.at(name);
      instances_.push_back(std::move(inst));
    }
  }

  // Same-kind episodes on one target must not overlap. Instantaneous
  // episodes occupy a point, so two of a kind conflict only when they share
  // `at`; shed windows use interval overlap. Both plan lines are named.
  for (std::size_t a = 0; a < instances_.size(); ++a) {
    for (std::size_t b = a + 1; b < instances_.size(); ++b) {
      const auto& ea = instances_[a].episode;
      const auto& eb = instances_[b].episode;
      if (ea.kind != eb.kind || ea.target != eb.target) continue;
      const bool overlap = ea.at == eb.at ||
                           (ea.at < eb.end() && eb.at < ea.end());
      if (overlap) {
        bad_plan("overlapping " + to_string(ea.kind) + " episodes on " +
                 ea.target + " (lines " +
                 std::to_string(std::min(ea.line, eb.line)) + " and " +
                 std::to_string(std::max(ea.line, eb.line)) + ")");
      }
    }
  }

  // Validate each target's episode *timeline* and pre-construct swap
  // replacements. Kind and weights are tracked through earlier episodes so
  // a `retune g=` after a `swap sched=hpd` is legal, a retune after a swap
  // to FCFS-like kinds is caught here, and every replacement starts with
  // the weights in force at its swap instant.
  for (auto& [name, target] : targets_) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      if (instances_[i].episode.target == name) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return instances_[a].episode.at <
                              instances_[b].episode.at;
                     });
    SchedulerKind kind = target.kind;
    std::vector<double> sdp = target.config.sdp;
    double g = target.config.hpd_g;
    const std::uint32_t n = target.config.num_classes();
    for (const std::size_t i : order) {
      Instance& inst = instances_[i];
      const ControlEpisode& ep = inst.episode;
      switch (ep.kind) {
        case ControlKind::kRetune:
          if (!ep.weights.empty()) {
            if (!weight_capable(kind)) {
              bad_line(ep.line, "retune w targets " + name + ", which runs " +
                                    to_string(kind) + " (no weights)");
            }
            if (ep.weights.size() != n) {
              bad_line(ep.line, "w needs " + std::to_string(n) +
                                    " values (one per class), got " +
                                    std::to_string(ep.weights.size()));
            }
            sdp = ep.weights;
          }
          if (ep.g > 0.0 && kind != SchedulerKind::kHpd) {
            bad_line(ep.line, "retune g targets " + name + ", which runs " +
                                  to_string(kind) + " (not hpd) at t=" +
                                  std::to_string(ep.at));
          }
          if (ep.g > 0.0) g = ep.g;
          break;
        case ControlKind::kClass:
          if (ep.cls >= n) {
            bad_line(ep.line, "class index " + std::to_string(ep.cls) +
                                  " out of range (target " + name + " has " +
                                  std::to_string(n) + " classes)");
          }
          break;
        case ControlKind::kSwap: {
          if (!class_based(kind)) {
            bad_line(ep.line, "swap targets " + name + ", which runs " +
                                  to_string(kind) +
                                  " (not class-based) at t=" +
                                  std::to_string(ep.at));
          }
          if (ep.sched == SchedulerKind::kBpr &&
              target.config.link_capacity <= 0.0) {
            bad_line(ep.line, "swap to bpr needs a link capacity in the "
                              "scheduler config");
          }
          SchedulerConfig replacement_config = target.config;
          replacement_config.sdp = sdp;
          replacement_config.hpd_g = g;
          inst.replacement = make_scheduler(ep.sched, replacement_config);
          PDS_REQUIRE(dynamic_cast<ClassBasedScheduler*>(
                          inst.replacement.get()) != nullptr);
          kind = ep.sched;
          break;
        }
        case ControlKind::kShed:
          if (ep.shed.classes > n) {
            bad_line(ep.line, "shed classes=" +
                                  std::to_string(ep.shed.classes) +
                                  " exceeds the " + std::to_string(n) +
                                  " classes of target " + name);
          }
          break;
      }
    }
  }

  // Route control drops (drains, sheds) back through the injector so the
  // ctrl.* counters see them.
  for (auto& [name, target] : targets_) {
    target.link->set_control_drop_handler(
        [this](const Packet& p, ControlDropKind kind, SimTime) {
          note_control_drop(p, kind);
        });
  }

  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const auto& ep = instances_[i].episode;
    PDS_CHECK(ep.at >= sim_.now(),
              "control episode starts before the current simulation time");
    if (ep.kind == ControlKind::kShed) {
      sim_.schedule_at(ep.at, SimEvent([this, i] { apply(i); }, "ctrl.begin"));
      sim_.schedule_at(ep.end(),
                       SimEvent([this, i] { end_shed(i); }, "ctrl.end"));
    } else {
      sim_.schedule_at(ep.at, SimEvent([this, i] { apply(i); }, "ctrl.apply"));
    }
  }
}

void ControlInjector::set_span_buffer(SpanBuffer* buffer,
                                      double us_per_time_unit) {
#if PDS_OBS_ENABLED
  spans_ = buffer;
  span_scale_ = us_per_time_unit;
#else
  (void)buffer;
  (void)us_per_time_unit;
#endif
}

void ControlInjector::bind_metrics(MetricsRegistry& registry) {
  metrics_ = &registry;
  episodes_counter_ = &registry.counter("ctrl.episodes");
  shed_counter_ = &registry.counter("ctrl.shed.drops");
  drain_counter_ = &registry.counter("ctrl.drain.drops");
}

std::uint64_t ControlInjector::shed_drops() const {
  std::uint64_t total = 0;
  for (const auto& [name, target] : targets_) {
    total += target.link->shed_drops();
  }
  return total;
}

std::uint64_t ControlInjector::drain_drops() const {
  std::uint64_t total = 0;
  for (const auto& [name, target] : targets_) {
    total += target.link->drain_drops();
  }
  return total;
}

std::string ControlInjector::active_summary() const {
  std::string out;
  for (const Instance& inst : instances_) {
    if (!inst.active) continue;
    if (!out.empty()) out += '+';
    out.append(to_string(inst.episode.kind)).append(" ").append(
        inst.episode.target);
  }
  return out;
}

Scheduler& ControlInjector::current_scheduler(const std::string& name) {
  const auto it = targets_.find(name);
  PDS_CHECK(it != targets_.end(), "unknown control target " + name);
  return it->second.link->scheduler_mut();
}

void ControlInjector::emit_span(const ControlEpisode& ep) {
#if PDS_OBS_ENABLED
  if (spans_ == nullptr) return;
  std::ostringstream args;
  args << "\"kind\":\"" << to_string(ep.kind) << "\",\"target\":\""
       << ep.target << "\"";
  if (ep.kind == ControlKind::kSwap) {
    args << ",\"sched\":\"" << to_string(ep.sched) << "\"";
  }
  spans_->emit(Span{ep.at * span_scale_, (ep.end() - ep.at) * span_scale_,
                    kSpanSimPid, kSpanCtrlTid,
                    to_string(ep.kind) + " " + ep.target, "ctrl",
                    args.str()});
#else
  (void)ep;
#endif
}

void ControlInjector::note_control_drop(const Packet& p,
                                        ControlDropKind kind) {
  if (metrics_ == nullptr) return;
  if (kind == ControlDropKind::kShed) {
    shed_counter_->inc();
    if (p.cls >= shed_class_counters_.size()) {
      shed_class_counters_.resize(p.cls + 1, nullptr);
    }
    Counter*& per_class = shed_class_counters_[p.cls];
    if (per_class == nullptr) {
      per_class = &metrics_->counter("ctrl.shed.c" + std::to_string(p.cls));
    }
    per_class->inc();
  } else {
    drain_counter_->inc();
  }
}

void ControlInjector::apply(std::size_t index) {
  Instance& inst = instances_[index];
  const ControlEpisode& ep = inst.episode;
  Link& link = *inst.target->link;
  ++applied_;
  if (episodes_counter_ != nullptr) episodes_counter_->inc();
  switch (ep.kind) {
    case ControlKind::kRetune: {
      Scheduler& sched = link.scheduler_mut();
      if (!ep.weights.empty()) sched.set_weights(ep.weights);
      if (ep.g > 0.0) {
        auto* hpd = dynamic_cast<HpdScheduler*>(&sched);
        PDS_REQUIRE(hpd != nullptr);  // arm() validated the kind timeline
        hpd->set_g(ep.g);
      }
      ++retunes_;
      break;
    }
    case ControlKind::kClass:
      link.set_class_admission(ep.cls, !ep.drain);
      ++class_changes_;
      break;
    case ControlKind::kSwap: {
      auto* old_sched =
          dynamic_cast<ClassBasedScheduler*>(&link.scheduler_mut());
      auto* replacement =
          dynamic_cast<ClassBasedScheduler*>(inst.replacement.get());
      PDS_REQUIRE(old_sched != nullptr && replacement != nullptr);
      replacement->adopt_backlog(old_sched->release_backlog(), sim_.now());
      link.set_scheduler(*replacement);
      inst.target->kind = ep.sched;
      ++swaps_;
      break;
    }
    case ControlKind::kShed:
      link.set_shed(ep.shed);
      inst.active = true;
      ++sheds_;
      // Completion (and the span) happens at the window end.
      return;
  }
  ++completed_;
  emit_span(ep);
}

void ControlInjector::end_shed(std::size_t index) {
  Instance& inst = instances_[index];
  PDS_REQUIRE(inst.episode.kind == ControlKind::kShed && inst.active);
  inst.target->link->clear_shed();
  inst.active = false;
  ++completed_;
  emit_span(inst.episode);
}

}  // namespace pds
