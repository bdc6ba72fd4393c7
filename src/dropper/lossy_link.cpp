#include "dropper/lossy_link.hpp"

#include "util/contracts.hpp"

namespace pds {

LossyLink::LossyLink(Simulator& sim, Scheduler& sched, double capacity,
                     std::uint64_t buffer_packets, DropPolicy policy,
                     std::unique_ptr<PlrDropper> plr,
                     DepartureHandler on_departure, DropHandler on_drop)
    : sim_(sim),
      buffer_packets_(buffer_packets),
      policy_(policy),
      plr_(std::move(plr)),
      on_drop_(std::move(on_drop)),
      link_(sim, sched, capacity, std::move(on_departure)),
      arrivals_(sched.num_classes(), 0),
      drops_(sched.num_classes(), 0) {
  PDS_CHECK(buffer_packets >= 1, "buffer must hold at least one packet");
  PDS_CHECK(static_cast<bool>(on_drop_), "null drop handler");
  if (policy_ == DropPolicy::kPlr) {
    PDS_CHECK(plr_ != nullptr, "PLR policy requires a dropper");
    PDS_CHECK(plr_->num_classes() == sched.num_classes(),
              "dropper/scheduler class count mismatch");
  } else {
    PDS_CHECK(plr_ == nullptr, "dropper given but policy is not PLR");
  }
}

void LossyLink::notify_drop(const Packet& p) {
  const Scheduler& sched = link_.scheduler();
  PDS_OBS_NOTIFY(probe_, p.id,
                 on_drop(p,
                         ProbeContext{hop_, sched.backlog_packets(p.cls),
                                      sched.backlog_bytes(p.cls)},
                         sim_.now()));
}

std::uint64_t LossyLink::queued_packets() const {
  return link_.scheduler().total_backlog_packets();
}

void LossyLink::set_burst_loss(double rate, Rng rng) {
  PDS_CHECK(rate > 0.0 && rate <= 1.0, "burst loss rate must be in (0, 1]");
  burst_rate_ = rate;
  burst_rng_ = rng;
}

void LossyLink::arrive(Packet p) {
  const ClassId cls = p.cls;
  PDS_CHECK(cls < arrivals_.size(), "class index out of range");
  ++arrivals_[cls];
  if (plr_) plr_->note_arrival(cls);

  // Fault-injected burst loss sits in front of the buffer: a lost packet
  // never contends for admission and never charges the drop policy.
  if (burst_rate_ > 0.0 && burst_rng_.uniform01() < burst_rate_) {
    ++burst_drops_;
    notify_drop(p);
    on_drop_(p, sim_.now());
    return;
  }

  if (queued_packets() < buffer_packets_) {
    link_.arrive(std::move(p));
    return;
  }

  // Buffer overflow.
  if (policy_ == DropPolicy::kDropIncoming) {
    ++drops_[cls];
    notify_drop(p);
    on_drop_(p, sim_.now());
    return;
  }

  // PLR: the arriving packet's class is a candidate victim even when it has
  // nothing queued (the arrival itself would be pushed out). The scratch
  // vector is a member so repeated overflows reuse its capacity.
  Scheduler& sched = link_.scheduler_mut();
  backlogged_.assign(sched.num_classes(), false);
  for (ClassId c = 0; c < sched.num_classes(); ++c) {
    backlogged_[c] = sched.backlog_packets(c) > 0;
  }
  backlogged_[cls] = true;
  const auto victim = plr_->pick_victim(backlogged_);
  PDS_REQUIRE(victim.has_value());
  ++drops_[*victim];
  if (*victim == cls && sched.backlog_packets(cls) == 0) {
    notify_drop(p);
    on_drop_(p, sim_.now());
    return;
  }
  auto pushed_out = sched.drop_tail(*victim);
  PDS_REQUIRE(pushed_out.has_value());
  notify_drop(*pushed_out);
  on_drop_(*pushed_out, sim_.now());
  link_.arrive(std::move(p));
}

std::uint64_t LossyLink::arrivals(ClassId cls) const {
  PDS_CHECK(cls < arrivals_.size(), "class index out of range");
  return arrivals_[cls];
}

std::uint64_t LossyLink::drops(ClassId cls) const {
  PDS_CHECK(cls < drops_.size(), "class index out of range");
  return drops_[cls];
}

double LossyLink::loss_rate(ClassId cls) const {
  PDS_CHECK(cls < arrivals_.size(), "class index out of range");
  if (arrivals_[cls] == 0) return 0.0;
  return static_cast<double>(drops_[cls]) /
         static_cast<double>(arrivals_[cls]);
}

}  // namespace pds
