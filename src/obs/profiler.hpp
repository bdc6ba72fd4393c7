// Simulator profiler: the SimMonitor implementation behind future perf PRs.
//
// Attach with `sim.set_monitor(&profiler)` and every executed event is
// attributed — by the static label given at schedule time — to a category
// accumulating event counts and wall-clock time. The profiler also samples
// the pending-event-queue depth at every event: the event-set occupancy
// that prices the radix queue's bucket scans (see dsim/event_queue.hpp).
//
// Event counts and queue-depth statistics are exact. Wall time is sampled:
// the clock is read only for a deterministic 1-in-~kStride sample of each
// label's own events — its first event, then one event every
// [kStride - kJitter/2, kStride + kJitter/2) events, the gap drawn from a
// per-label mix64 stream (never from the simulation's Rng) so periodic
// patterns inside one label cannot alias with the stride. A category's
// wall time is the estimate sampled_time * events / timed_events, and
// identical runs time the same events.
//
// Overhead when attached is a label-pointer compare, the depth update and a
// countdown per event (a short scan only when the label changes), plus two
// steady_clock reads per timed event; when not attached the kernel pays a
// single null check.
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
  // Nominal gap between timed events of one label, and the width of the
  // jitter window around it (a power of two).
  static constexpr std::uint32_t kStride = 16;
  static constexpr std::uint32_t kJitter = 8;

  struct Category {
    std::string label;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;  // estimate, see the header comment
    std::uint64_t timed_events = 0;
  };

  void on_event_begin(SimTime now, const char* label,
                      std::size_t pending) noexcept override;
  void on_event_end(SimTime now, const char* label) noexcept override;

  // Categories sorted by descending wall time; labels with equal text merge.
  std::vector<Category> categories() const;

  std::uint64_t total_events() const noexcept { return total_events_; }
  // Sum of the per-category wall-time estimates.
  double total_wall_seconds() const noexcept;

  // Pending-event-set depth sampled at every event execution.
  const RunningStats& queue_depth() const noexcept { return depth_; }

  void reset();

  // Renders the category table plus queue-depth summary via util/table.
  void print(std::ostream& os) const;

 private:
  struct Agg {
    const char* label = nullptr;  // by address; null = unlabeled
    std::uint64_t events = 0;
    std::uint64_t timed = 0;
    double sampled_seconds = 0.0;
    std::uint64_t gap_stream = 0;  // position in this label's jitter stream
    std::uint32_t until_timed = 1;  // countdown; the first event is timed
  };

  using Clock = std::chrono::steady_clock;

  static double estimate(const Agg& agg) noexcept;
  void find_label(const char* label);

  std::vector<Agg> by_label_;  // one entry per distinct label address
  std::size_t last_ = 0;       // the current (or previous) event's entry
  bool timing_ = false;
  RunningStats depth_;
  Clock::time_point started_{};
  std::uint64_t total_events_ = 0;
};

}  // namespace pds
