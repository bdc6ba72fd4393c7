// Virtual Clock scheduler (Zhang, SIGCOMM'90) — a rate-reservation
// baseline.
//
// Each class owns a virtual clock that advances by L / w_i per queued
// packet, never falling behind real time:
//
//     VC_i = max(now, VC_i) + L / w_i,   tag(packet) = VC_i,
//
// and the backlogged head with the smallest tag is served. Unlike SCFQ's
// shared virtual time, a class that idles does not bank credit (its clock
// is pulled up to `now`), but a class that *over-uses* while others idle is
// later punished — the classic fairness critique. Included as the second
// capacity-differentiation baseline: bandwidth shares are controllable, but
// like the other members of the family it cannot pin delay *ratios*.
#pragma once

#include "queueing/ring.hpp"
#include "sched/scheduler.hpp"

namespace pds {

class VirtualClockScheduler final : public Scheduler {
 public:
  explicit VirtualClockScheduler(const SchedulerConfig& config);

  void enqueue(Packet p, SimTime now) override;
  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "VC"; }
  bool empty() const noexcept override { return backlog_.empty(); }
  std::uint32_t num_classes() const noexcept override {
    return backlog_.num_classes();
  }
  std::uint64_t backlog_packets(ClassId cls) const override {
    PDS_CHECK(cls < backlog_.num_classes(), "class index out of range");
    return backlog_.head_of(cls).packets;
  }
  std::uint64_t backlog_bytes(ClassId cls) const override {
    PDS_CHECK(cls < backlog_.num_classes(), "class index out of range");
    return backlog_.head_of(cls).bytes;
  }

  // Live retune: new weights advance the virtual clocks of *future*
  // arrivals; tags already queued keep the rates they were admitted under.
  void set_weights(const std::vector<double>& sdp) override;

  double clock(ClassId cls) const;

 private:
  MultiClassBacklog backlog_;
  std::vector<double> weight_;
  std::vector<double> vclock_;
  std::vector<Ring<double>> tags_;  // FIFO-parallel to each queue
};

}  // namespace pds
