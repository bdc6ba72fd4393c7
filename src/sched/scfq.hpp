// Self-Clocked Fair Queueing — the WFQ-family capacity-differentiation
// baseline (Section 2.1's "Capacity Differentiation" model).
//
// SCFQ (Golestani, INFOCOM'94) approximates GPS with a virtual time equal to
// the finish tag of the packet most recently selected for service. A packet
// of class i arriving at virtual time v gets finish tag
//
//     F = max(v, F_prev_i) + L / w_i
//
// and the backlogged head with the smallest tag is served. Weights are the
// SDPs, so the *bandwidth* ratios are controllable — but the *delay* ratios
// drift with class load, which is the model's documented weakness.
#pragma once

#include "queueing/ring.hpp"
#include "sched/scheduler.hpp"

namespace pds {

class ScfqScheduler final : public Scheduler {
 public:
  explicit ScfqScheduler(const SchedulerConfig& config);

  void enqueue(Packet p, SimTime now) override;
  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "SCFQ"; }
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

  // Live retune: new weights shape the finish tags of *future* arrivals;
  // tags already queued keep the rates they were admitted under.
  void set_weights(const std::vector<double>& sdp) override;

  double virtual_time() const noexcept { return vtime_; }

 private:
  MultiClassBacklog backlog_;
  std::vector<double> weight_;
  // Finish tags of queued packets, FIFO-parallel to each class queue.
  std::vector<Ring<double>> tags_;
  std::vector<double> last_finish_;  // F_prev per class
  double vtime_ = 0.0;
};

}  // namespace pds
