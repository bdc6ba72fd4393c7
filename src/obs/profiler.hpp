// Simulator profiler: the SimMonitor implementation behind future perf PRs.
//
// Attach with `sim.set_monitor(&profiler)` and every executed event is
// attributed — by the static label given at schedule time — to a category
// accumulating wall-clock time and event counts. The profiler also samples
// the pending-event-queue depth at every event, giving the event-set
// occupancy distribution that decides between the binary heap and the
// calendar queue (see dsim/event_queue.hpp).
//
// Overhead when attached is two steady_clock reads plus a label-pointer
// compare per event (a short scan only when the label changes); when not
// attached the kernel pays a single null check.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "stats/running_stats.hpp"

namespace pds {

class SimProfiler final : public SimMonitor {
 public:
  struct Category {
    std::string label;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };

  void on_event_begin(SimTime now, const char* label,
                      std::size_t pending) noexcept override;
  void on_event_end(SimTime now, const char* label) noexcept override;

  // Categories sorted by descending wall time; labels with equal text merge.
  std::vector<Category> categories() const;

  std::uint64_t total_events() const noexcept { return total_events_; }
  double total_wall_seconds() const noexcept { return total_wall_; }

  // Pending-event-set depth sampled at every event execution.
  const RunningStats& queue_depth() const noexcept { return depth_; }

  void reset();

  // Renders the category table plus queue-depth summary via util/table.
  void print(std::ostream& os) const;

 private:
  struct Agg {
    const char* label = nullptr;  // by address; null = unlabeled
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };

  using Clock = std::chrono::steady_clock;

  std::vector<Agg> by_label_;  // one entry per distinct label address
  std::size_t last_ = 0;       // the previous event's entry
  RunningStats depth_;
  Clock::time_point started_{};
  std::uint64_t total_events_ = 0;
  double total_wall_ = 0.0;
};

}  // namespace pds
