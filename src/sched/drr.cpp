#include "sched/drr.hpp"

#include "util/contracts.hpp"

namespace pds {

DrrScheduler::DrrScheduler(const SchedulerConfig& config)
    : ClassBasedScheduler(config),
      quantum_bytes_(config.drr_quantum_bytes),
      in_ring_(config.num_classes(), false),
      deficit_(config.num_classes(), 0.0),
      quantum_(config.num_classes(), 0.0) {
  active_.reserve(config.num_classes());
  for (ClassId c = 0; c < num_classes(); ++c) {
    quantum_[c] = config.drr_quantum_bytes * sdp()[c];
  }
}

void DrrScheduler::set_weights(const std::vector<double>& sdp) {
  ClassBasedScheduler::set_weights(sdp);
  for (ClassId c = 0; c < num_classes(); ++c) {
    quantum_[c] = quantum_bytes_ * this->sdp()[c];
  }
}

void DrrScheduler::on_backlog_adopted(SimTime) {
  active_.clear();
  visit_started_ = false;
  for (ClassId c = 0; c < num_classes(); ++c) {
    deficit_[c] = 0.0;
    in_ring_[c] = backlog_.head_of(c).packets != 0;
    if (in_ring_[c]) active_.push_back(c);
  }
}

double DrrScheduler::deficit(ClassId cls) const {
  PDS_CHECK(cls < deficit_.size(), "class index out of range");
  return deficit_[cls];
}

void DrrScheduler::enqueue(Packet p, SimTime now) {
  const ClassId cls = p.cls;
  ClassBasedScheduler::enqueue(std::move(p), now);
  if (!in_ring_[cls]) {
    in_ring_[cls] = true;
    deficit_[cls] = 0.0;
    active_.push_back(cls);
  }
}

std::optional<Packet> DrrScheduler::drop_tail(ClassId cls) {
  auto dropped = ClassBasedScheduler::drop_tail(cls);
  if (dropped && backlog_.head_of(cls).packets == 0) {
    // Keep the active ring consistent: an emptied class leaves the ring.
    if (!active_.empty() && active_.front() == cls) visit_started_ = false;
    for (std::size_t i = active_.size(); i > 0; --i) {  // one full rotation
      const ClassId c = active_.pop_front();
      if (c != cls) active_.push_back(c);
    }
    in_ring_[cls] = false;
    deficit_[cls] = 0.0;
  }
  return dropped;
}

std::optional<Packet> DrrScheduler::dequeue(SimTime) {
  if (backlog_.empty()) return std::nullopt;
  // The head of `active_` holds the current service opportunity ("visit").
  // One quantum is granted when a visit starts; the class then sends one
  // packet per dequeue call until its deficit or queue runs out, at which
  // point the visit ends and the class rotates to the back. This preserves
  // DRR's per-visit burst semantics even though the Link pulls packets one
  // at a time.
  for (;;) {
    PDS_REQUIRE(!active_.empty());
    const ClassId c = active_.front();
    const ClassHead& h = backlog_.head_of(c);
    PDS_REQUIRE(h.packets != 0);
    if (!visit_started_) {
      deficit_[c] += quantum_[c];
      visit_started_ = true;
    }
    if (deficit_[c] >= static_cast<double>(h.head_bytes)) {
      deficit_[c] -= static_cast<double>(h.head_bytes);
      Packet p = backlog_.pop(c);
      if (backlog_.head_of(c).packets == 0) {
        active_.pop_front();
        in_ring_[c] = false;
        deficit_[c] = 0.0;
        visit_started_ = false;
      }
      return p;
    }
    // Deficit exhausted: the visit ends, credit carries over.
    active_.push_back(active_.pop_front());
    visit_started_ = false;
  }
}

}  // namespace pds
