// ControlInjector: drives a ControlPlan against live links, clock-driven —
// the deterministic stand-in for an xds-style control channel.
//
// Usage:
//   ControlInjector inj(sim, parse_control_plan(text));
//   inj.attach("link", link, SchedulerKind::kWtp, sched_config);
//   inj.arm();                      // validate + schedule episodes
//   sim.run_until(t_end);
//
// attach() names a Link together with the kind and config of the scheduler
// currently serving it (the config is the template swap replacements are
// built from — same capacity, burst, arena). arm() expands wildcard targets
// (bare `*` in attach-name order, prefix patterns in attach order, exactly
// like FaultInjector), validates every episode against the target's
// scheduler *timeline* — a `retune g=` must land while the target runs HPD,
// retune/swap need a weight-capable / class-based scheduler, tracking kind
// changes through earlier swaps — rejects same-kind overlaps on one target
// (both plan lines named; instantaneous episodes conflict when they share
// `at`), pre-constructs every swap replacement, and schedules the episode
// boundaries as ordinary SimEvents ("ctrl.apply" for instantaneous
// episodes, "ctrl.begin"/"ctrl.end" for shed windows).
//
// Determinism contract (docs/control_plane.md): every control boundary is a
// plan-scripted simulator event; nothing reads the wall clock or thread
// identity. A controlled run is exactly as replayable as a plain one, and
// sweep cells carrying control plans keep the byte-identical --jobs
// contract of exp/sweep.hpp.
//
// The injector must outlive the simulation run (scheduled events capture
// `this`, and swapped-in schedulers are owned here).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/control_plan.hpp"
#include "dsim/simulator.hpp"
#include "sched/link.hpp"

namespace pds {

class Counter;
class MetricsRegistry;
class SpanBuffer;

class ControlInjector {
 public:
  ControlInjector(Simulator& sim, ControlPlan plan);

  ControlInjector(const ControlInjector&) = delete;
  ControlInjector& operator=(const ControlInjector&) = delete;

  // Registers a target before arm(). Names must be unique; the link (and
  // the scheduler currently serving it) must outlive the injector's run.
  // `kind`/`config` describe that scheduler; swap replacements are built
  // from `config` with only the kind (and any retuned weights) changed.
  void attach(const std::string& name, Link& link, SchedulerKind kind,
              const SchedulerConfig& config);

  // Validates the plan against the attached targets and schedules every
  // episode. Call exactly once, before running the simulator, at a
  // simulation time no later than the earliest episode. Throws
  // std::invalid_argument on unknown targets, unmatched patterns, class
  // indices out of range, retune/swap aimed at schedulers that cannot take
  // them, or same-kind overlapping episodes on one target.
  void arm();

  const ControlPlan& plan() const noexcept { return plan_; }

  // Episode instances after wildcard expansion (0 until arm()).
  std::size_t scheduled_episodes() const noexcept {
    return instances_.size();
  }
  std::uint64_t episodes_applied() const noexcept { return applied_; }
  std::uint64_t episodes_completed() const noexcept { return completed_; }

  // Per-kind application counts (instances, post-expansion).
  std::uint64_t retunes_applied() const noexcept { return retunes_; }
  std::uint64_t swaps_applied() const noexcept { return swaps_; }
  std::uint64_t class_changes_applied() const noexcept {
    return class_changes_;
  }
  std::uint64_t sheds_applied() const noexcept { return sheds_; }

  // Control-plane drops summed over the attached links (live totals).
  std::uint64_t shed_drops() const;
  std::uint64_t drain_drops() const;

  // Optional span emission (obs/span.hpp): each applied episode becomes one
  // span on the control track (kSpanCtrlTid; zero-duration for
  // instantaneous episodes), scaled by `us_per_time_unit`. Compiled out
  // when PDS_OBS_ENABLED=0. Set before running; the buffer must outlive the
  // run.
  void set_span_buffer(SpanBuffer* buffer, double us_per_time_unit = 1.0);

  // Optional metrics: counters `ctrl.episodes` (applied instances),
  // `ctrl.shed.drops`, `ctrl.drain.drops`, and per-class
  // `ctrl.shed.c<idx>` as sheds happen.
  void bind_metrics(MetricsRegistry& registry);

  // Human-readable "+"-joined list of currently active shed windows
  // ("shed link"); empty when none. Composes with
  // FaultInjector::active_summary for conformance attribution.
  std::string active_summary() const;

  // The scheduler currently serving an attached link (post-swap); for
  // tests and report assembly.
  Scheduler& current_scheduler(const std::string& name);

 private:
  struct Target {
    Link* link = nullptr;
    SchedulerKind kind = SchedulerKind::kWtp;  // current, updated by swaps
    SchedulerConfig config;                    // swap-replacement template
  };

  struct Instance {
    ControlEpisode episode;  // with a concrete (non-wildcard) target
    Target* target = nullptr;
    // kSwap only: the replacement, built at arm(), installed at apply time.
    std::unique_ptr<Scheduler> replacement;
    bool active = false;  // kShed only
  };

  void apply(std::size_t index);  // instantaneous episodes + shed begin
  void end_shed(std::size_t index);
  void emit_span(const ControlEpisode& ep);
  void note_control_drop(const Packet& p, ControlDropKind kind);

  Simulator& sim_;
  ControlPlan plan_;
  std::map<std::string, Target> targets_;
  std::vector<std::string> attach_order_;
  std::vector<Instance> instances_;
  bool armed_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t retunes_ = 0;
  std::uint64_t swaps_ = 0;
  std::uint64_t class_changes_ = 0;
  std::uint64_t sheds_ = 0;
  SpanBuffer* spans_ = nullptr;
  double span_scale_ = 1.0;
  // Metric handles, resolved in bind_metrics(); the per-class shed counters
  // are created on each class's first shed drop (null until then).
  MetricsRegistry* metrics_ = nullptr;
  Counter* episodes_counter_ = nullptr;
  Counter* shed_counter_ = nullptr;
  Counter* drain_counter_ = nullptr;
  std::vector<Counter*> shed_class_counters_;
};

}  // namespace pds
