// First-Come-First-Served scheduler: the classless baseline.
//
// FCFS ignores classes for ordering but still reports per-class backlog so it
// can stand in for the "work-conserving FCFS server" of the conservation law
// (Eq. 5) and the feasibility conditions (Eq. 7): the delay d(lambda) used
// there is exactly the delay this scheduler yields on the aggregate stream.
#pragma once

#include "queueing/class_queue.hpp"
#include "sched/scheduler.hpp"

namespace pds {

class FcfsScheduler final : public Scheduler {
 public:
  // `num_classes` is only used for backlog reporting; pass 1 when classes do
  // not matter (subset FCFS runs in the feasibility checker).
  explicit FcfsScheduler(std::uint32_t num_classes);

  void enqueue(Packet p, SimTime now) override;
  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "FCFS"; }
  bool empty() const noexcept override { return q_.empty(); }
  std::uint32_t num_classes() const noexcept override { return num_classes_; }
  std::uint64_t backlog_packets(ClassId cls) const override;
  std::uint64_t backlog_bytes(ClassId cls) const override;

 private:
  std::uint32_t num_classes_;
  ClassQueue q_;
  std::vector<std::uint64_t> packets_per_class_;
  std::vector<std::uint64_t> bytes_per_class_;
};

}  // namespace pds
