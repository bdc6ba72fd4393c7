#include "obs/profiler.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/hash.hpp"
#include "util/table.hpp"

namespace pds {

static_assert((SimProfiler::kJitter & (SimProfiler::kJitter - 1)) == 0 &&
                  SimProfiler::kJitter < SimProfiler::kStride,
              "jitter must be a power of two below the stride");

void SimProfiler::find_label(const char* label) {
  last_ = 0;
  while (last_ < by_label_.size() && by_label_[last_].label != label) ++last_;
  if (last_ == by_label_.size()) {
    Agg agg;
    agg.label = label;
    // Each label's jitter stream starts from its first-seen ordinal, so
    // identical runs draw identical gaps.
    agg.gap_stream = mix64(last_);
    by_label_.push_back(agg);
  }
}

void SimProfiler::on_event_begin(SimTime, const char* label,
                                 std::size_t pending) noexcept {
  depth_.add(static_cast<double>(pending));
  ++total_events_;
  if (last_ >= by_label_.size() || by_label_[last_].label != label) {
    // noexcept contract: an allocation failure here would terminate, which
    // is acceptable for a diagnostics tool.
    find_label(label);
  }
  Agg& agg = by_label_[last_];
  ++agg.events;
  timing_ = --agg.until_timed == 0;
  if (timing_) {
    agg.until_timed = kStride - kJitter / 2 +
                      static_cast<std::uint32_t>(mix64(agg.gap_stream++) &
                                                 (kJitter - 1));
    started_ = Clock::now();
  }
}

void SimProfiler::on_event_end(SimTime, const char*) noexcept {
  if (!timing_) return;
  const double secs =
      std::chrono::duration<double>(Clock::now() - started_).count();
  timing_ = false;
  Agg& agg = by_label_[last_];
  ++agg.timed;
  agg.sampled_seconds += secs;
}

double SimProfiler::estimate(const Agg& agg) noexcept {
  return agg.timed > 0 ? agg.sampled_seconds *
                             static_cast<double>(agg.events) /
                             static_cast<double>(agg.timed)
                       : 0.0;
}

double SimProfiler::total_wall_seconds() const noexcept {
  double total = 0.0;
  for (const Agg& agg : by_label_) total += estimate(agg);
  return total;
}

std::vector<SimProfiler::Category> SimProfiler::categories() const {
  std::map<std::string, Category> by_text;
  for (const Agg& agg : by_label_) {
    Category& merged =
        by_text[agg.label != nullptr ? agg.label : "(unlabeled)"];
    merged.events += agg.events;
    merged.wall_seconds += estimate(agg);
    merged.timed_events += agg.timed;
  }
  std::vector<Category> out;
  for (auto& [label, cat] : by_text) {
    cat.label = label;
    out.push_back(std::move(cat));
  }
  std::sort(out.begin(), out.end(), [](const Category& a, const Category& b) {
    if (a.wall_seconds != b.wall_seconds) {
      return a.wall_seconds > b.wall_seconds;
    }
    return a.label < b.label;
  });
  return out;
}

void SimProfiler::reset() { *this = SimProfiler(); }

void SimProfiler::print(std::ostream& os) const {
  TablePrinter table({"category", "events", "wall (ms)", "share %",
                      "us/event"});
  const double total_wall = total_wall_seconds();
  std::uint64_t timed = 0;
  for (const auto& cat : categories()) {
    const double share =
        total_wall > 0.0 ? 100.0 * cat.wall_seconds / total_wall : 0.0;
    const double per_event =
        cat.events > 0 ? 1e6 * cat.wall_seconds /
                             static_cast<double>(cat.events)
                       : 0.0;
    table.add_row({cat.label, std::to_string(cat.events),
                   TablePrinter::num(cat.wall_seconds * 1e3, 3),
                   TablePrinter::num(share, 1),
                   TablePrinter::num(per_event, 3)});
    timed += cat.timed_events;
  }
  table.print(os);
  if (total_events_ > 0) {
    os << "wall times are estimates from " << timed << " of "
       << total_events_ << " events timed (1 in ~" << kStride
       << " per category)\n";
  }
  if (depth_.count() > 0) {
    os << "event-queue depth: mean " << TablePrinter::num(depth_.mean(), 1)
       << ", max " << TablePrinter::num(depth_.max(), 0) << " over "
       << depth_.count() << " events\n";
  }
}

}  // namespace pds
