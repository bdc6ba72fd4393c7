// FaultInjector: drives a FaultPlan against live links, clock-driven.
//
// Usage:
//   FaultInjector inj(sim, parse_fault_plan(text));
//   inj.attach("backbone", link);       // plain Link: down/degrade/stall
//   inj.attach("edge", lossy_link);     // LossyLink: additionally loss
//   inj.arm();                          // validate + schedule episodes
//   sim.run_until(t_end);
//
// arm() expands wildcard targets over everything attached, validates that
// every episode references a known target (and that loss episodes reference
// a LossyLink), rejects overlapping episodes of the same kind on the same
// target (their begin/end semantics would be ambiguous, reported with both
// plan line numbers), and schedules one begin and one end event per episode
// ("fault.begin"/"fault.end" labels). A bare `*` expands in attach-name
// order (the historical contract — loss episode seeds depend on instance
// order); a prefix wildcard (`pod0*`) expands in attach order, which for
// attach_network is link-id order.
//
// Determinism contract (docs/robustness.md): every fault boundary is an
// ordinary simulator event at a plan-scripted time, and loss-burst
// randomness comes from an Rng seeded by (plan seed, episode index) — never
// from the host thread, wall clock, or execution order. A faulted run is
// therefore exactly as replayable as a fault-free one, and sweep cells
// carrying fault plans keep the byte-identical --jobs contract of
// exp/sweep.hpp.
//
// The injector must outlive the simulation run (scheduled events capture
// `this`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dropper/lossy_link.hpp"
#include "dsim/simulator.hpp"
#include "fault/fault_plan.hpp"
#include "sched/link.hpp"

namespace pds {

class Network;
class SpanBuffer;

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Registers a target before arm(). Names must be unique; the link must
  // outlive the injector's run.
  void attach(const std::string& name, Link& link);
  void attach(const std::string& name, LossyLink& lossy);

  // Validates the plan against the attached targets and schedules every
  // episode boundary. Call exactly once, before running the simulator, at a
  // simulation time no later than the earliest episode. Throws
  // std::invalid_argument on unknown targets, loss episodes aimed at plain
  // links, or same-kind overlapping episodes on one target.
  void arm();

  const FaultPlan& plan() const noexcept { return plan_; }

  // Episode instances after `*` expansion (0 until arm()).
  std::size_t scheduled_episodes() const noexcept {
    return instances_.size();
  }
  std::uint64_t episodes_begun() const noexcept { return begun_; }
  std::uint64_t episodes_completed() const noexcept { return completed_; }
  bool any_active() const noexcept { return begun_ > completed_; }

  // Optional span emission (obs/span.hpp): each completed episode becomes
  // one span [at, end] on the fault track, scaled by `us_per_time_unit`.
  // Timestamps are plan times — fully deterministic. Compiled out (the calls
  // become no-ops) when PDS_OBS_ENABLED=0. Set before running the simulator;
  // the buffer must outlive the run.
  void set_span_buffer(SpanBuffer* buffer, double us_per_time_unit = 1.0);

  // Human-readable "<kind> <target>" list of currently active episodes, in
  // instance order, "+"-joined ("down link+loss edge"); empty when none.
  // Feeds ConformanceMonitor::set_fault_context for violation attribution.
  std::string active_summary() const;

 private:
  struct Instance {
    FaultEpisode episode;  // with a concrete (non-*) target
    Link* link = nullptr;
    LossyLink* lossy = nullptr;  // non-null iff target is a LossyLink
    bool active = false;
  };

  void begin(std::size_t index);
  void end(std::size_t index);

  Simulator& sim_;
  FaultPlan plan_;
  std::map<std::string, Link*> links_;
  std::map<std::string, LossyLink*> lossies_;
  std::vector<std::string> attach_order_;  // prefix-wildcard expansion order
  std::vector<Instance> instances_;
  bool armed_ = false;
  std::uint64_t begun_ = 0;
  std::uint64_t completed_ = 0;
  SpanBuffer* spans_ = nullptr;
  double span_scale_ = 1.0;
};

// Convenience attachment: every link of a routed Network under its
// link_name().
void attach_network(FaultInjector& injector, Network& net);

}  // namespace pds
