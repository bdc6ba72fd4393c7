#include "sched/fcfs.hpp"

#include "util/contracts.hpp"

namespace pds {

FcfsScheduler::FcfsScheduler(std::uint32_t num_classes)
    : num_classes_(num_classes),
      packets_per_class_(num_classes, 0),
      bytes_per_class_(num_classes, 0) {
  PDS_CHECK(num_classes >= 1, "need at least one class");
}

void FcfsScheduler::enqueue(Packet p, SimTime now) {
  PDS_CHECK(p.cls < num_classes_, "class index out of range");
  PDS_CHECK(p.arrival <= now, "packet arrival stamped in the future");
  ++packets_per_class_[p.cls];
  bytes_per_class_[p.cls] += p.size_bytes;
  q_.push(p);
  notify_enqueued(p, now);
}

std::optional<Packet> FcfsScheduler::dequeue(SimTime) {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.pop();
  --packets_per_class_[p.cls];
  bytes_per_class_[p.cls] -= p.size_bytes;
  return p;
}

std::uint64_t FcfsScheduler::backlog_packets(ClassId cls) const {
  PDS_CHECK(cls < num_classes_, "class index out of range");
  return packets_per_class_[cls];
}

std::uint64_t FcfsScheduler::backlog_bytes(ClassId cls) const {
  PDS_CHECK(cls < num_classes_, "class index out of range");
  return bytes_per_class_[cls];
}

}  // namespace pds
