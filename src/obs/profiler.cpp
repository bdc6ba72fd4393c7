#include "obs/profiler.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/table.hpp"

namespace pds {

void SimProfiler::on_event_begin(SimTime, const char* /*label*/,
                                 std::size_t pending) noexcept {
  depth_.add(static_cast<double>(pending));
  started_ = Clock::now();
}

void SimProfiler::on_event_end(SimTime, const char* label) noexcept {
  const double secs =
      std::chrono::duration<double>(Clock::now() - started_).count();
  if (last_ >= by_label_.size() || by_label_[last_].label != label) {
    last_ = 0;
    while (last_ < by_label_.size() && by_label_[last_].label != label) ++last_;
    // noexcept contract: an allocation failure here would terminate, which
    // is acceptable for a diagnostics tool.
    if (last_ == by_label_.size()) by_label_.push_back(Agg{label});
  }
  ++by_label_[last_].events;
  by_label_[last_].wall_seconds += secs;
  ++total_events_;
  total_wall_ += secs;
}

std::vector<SimProfiler::Category> SimProfiler::categories() const {
  std::map<std::string, Agg> by_text;
  for (const Agg& agg : by_label_) {
    Agg& merged = by_text[agg.label != nullptr ? agg.label : "(unlabeled)"];
    merged.events += agg.events;
    merged.wall_seconds += agg.wall_seconds;
  }
  std::vector<Category> out;
  for (const auto& [label, agg] : by_text) {
    out.push_back(Category{label, agg.events, agg.wall_seconds});
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
  for (const auto& cat : categories()) {
    const double share =
        total_wall_ > 0.0 ? 100.0 * cat.wall_seconds / total_wall_ : 0.0;
    const double per_event =
        cat.events > 0 ? 1e6 * cat.wall_seconds /
                             static_cast<double>(cat.events)
                       : 0.0;
    table.add_row({cat.label, std::to_string(cat.events),
                   TablePrinter::num(cat.wall_seconds * 1e3, 3),
                   TablePrinter::num(share, 1),
                   TablePrinter::num(per_event, 3)});
  }
  table.print(os);
  if (depth_.count() > 0) {
    os << "event-queue depth: mean " << TablePrinter::num(depth_.mean(), 1)
       << ", max " << TablePrinter::num(depth_.max(), 0) << " over "
       << depth_.count() << " events\n";
  }
}

}  // namespace pds
