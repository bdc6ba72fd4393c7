#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "exp/supervisor.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/atomic_file.hpp"
#include "util/number_text.hpp"

namespace pds {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Json::Json(bool b) : kind_(Kind::kBool), bool_(b) {}
Json::Json(int v) : kind_(Kind::kInt), int_(v) {}
Json::Json(unsigned v) : kind_(Kind::kUint), uint_(v) {}
Json::Json(long v) : kind_(Kind::kInt), int_(v) {}
Json::Json(long long v) : kind_(Kind::kInt), int_(v) {}
Json::Json(unsigned long v) : kind_(Kind::kUint), uint_(v) {}
Json::Json(unsigned long long v) : kind_(Kind::kUint), uint_(v) {}
Json::Json(double v) : kind_(Kind::kDouble), double_(v) {}
Json::Json(const char* s) : kind_(Kind::kString), string_(s) {}
Json::Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::set on a non-object");
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::push on a non-array");
  }
  items_.push_back(std::move(value));
  return *this;
}

void Json::render(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      TextAppender(out) << int_;
      break;
    case Kind::kUint:
      TextAppender(out) << uint_;
      break;
    case Kind::kDouble:
      if (std::isfinite(double_)) {
        TextAppender(out) << double_;
      } else {
        out += "null";
      }
      break;
    case Kind::kString:
      append_escaped(out, string_);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out += ',';
        first = false;
        item.render(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        value.render(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  render(out);
  return out;
}

RunReport::RunReport(std::string kind) : kind_(std::move(kind)) {}

void RunReport::set_section(const std::string& name, Json value) {
  for (auto& [key, existing] : sections_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  sections_.emplace_back(name, std::move(value));
}

std::string RunReport::dump() const {
  Json root = Json::object();
  root.set("schema", kSchema);
  root.set("kind", kind_);
  for (const auto& [name, value] : sections_) {
    Json copy = value;
    root.set(name, std::move(copy));
  }
  return root.dump() + "\n";
}

void RunReport::write(const std::string& path) const {
  write_file_atomic(path, dump());
}

Json metrics_json(const MetricsRegistry& registry) {
  Json counters = Json::object();
  for (const auto& [name, counter] : registry.counters()) {
    counters.set(name, counter.total());
  }
  Json gauges = Json::object();
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges.set(name, gauge.value());
  }
  Json summaries = Json::object();
  for (const auto& [name, summary] : registry.summaries()) {
    const RunningStats& total = summary.total();
    Json s = Json::object();
    s.set("count", total.count());
    if (total.count() > 0) {
      s.set("mean", total.mean())
          .set("stddev", total.stddev())
          .set("min", total.min())
          .set("max", total.max());
    }
    summaries.set(name, std::move(s));
  }
  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("summaries", std::move(summaries));
}

Json profile_json(const SimProfiler& profiler, bool include_wall) {
  // categories() orders by wall time — schedule-dependent. Reorder by label
  // so the default report is deterministic.
  std::vector<SimProfiler::Category> cats = profiler.categories();
  std::sort(cats.begin(), cats.end(),
            [](const SimProfiler::Category& a, const SimProfiler::Category& b) {
              return a.label < b.label;
            });
  Json by_label = Json::object();
  for (const auto& cat : cats) {
    Json entry = Json::object();
    entry.set("events", cat.events);
    if (include_wall) entry.set("wall_s", cat.wall_seconds);
    by_label.set(cat.label, std::move(entry));
  }
  Json out = Json::object();
  out.set("total_events", profiler.total_events());
  if (include_wall) out.set("total_wall_s", profiler.total_wall_seconds());
  out.set("queue_depth_mean", profiler.queue_depth().count() > 0
                                  ? Json(profiler.queue_depth().mean())
                                  : Json());
  out.set("by_label", std::move(by_label));
  return out;
}

Json conformance_json(const ConformanceSummary& summary,
                      const std::vector<ConformanceViolation>& violations) {
  Json per_pair = Json::array();
  for (const std::uint64_t n : summary.per_pair_violations) per_pair.push(n);
  Json list = Json::array();
  for (const ConformanceViolation& v : violations) {
    list.push(Json::object()
                  .set("window", v.window)
                  .set("t0", v.t0)
                  .set("t1", v.t1)
                  .set("lo", v.lo)
                  .set("hi", v.lo + 1)
                  .set("observed", v.observed)
                  .set("target", v.target)
                  .set("error", v.error)
                  .set("fault", v.fault));
  }
  return Json::object()
      .set("windows", summary.windows)
      .set("pairs_checked", summary.pairs_checked)
      .set("pairs_undefined", summary.pairs_undefined)
      .set("violations", summary.violations)
      .set("violations_during_faults", summary.violations_during_faults)
      .set("max_error", summary.max_error)
      .set("mean_error", summary.mean_error)
      .set("per_pair_violations", std::move(per_pair))
      .set("events", std::move(list));
}

Json sweep_cells_json(const SweepTelemetry& telemetry) {
  Json cells = Json::array();
  for (const CellRecord& cell : telemetry.cells) {
    cells.push(Json::object()
                   .set("index", cell.index)
                   .set("work", cell.work)
                   .set("attempts", cell.attempts)
                   .set("failed", cell.failed));
  }
  return cells;
}

Json sweep_volatile_json(const SweepTelemetry& telemetry) {
  Json busy = Json::array();
  for (const double s : telemetry.worker_busy_s) busy.push(s);
  Json cells = Json::array();
  for (const CellRecord& cell : telemetry.cells) {
    cells.push(Json::object()
                   .set("index", cell.index)
                   .set("worker", cell.worker)
                   .set("start_s", cell.start_s)
                   .set("run_s", cell.run_s));
  }
  return Json::object()
      .set("workers", telemetry.workers)
      .set("steals", telemetry.steals)
      .set("worker_busy_s", std::move(busy))
      .set("elapsed_s", telemetry.elapsed_s)
      .set("cells", std::move(cells));
}

Json failures_json(const std::vector<CellFailure>& failures) {
  Json list = Json::array();
  for (const CellFailure& f : failures) {
    list.push(Json::object()
                  .set("index", f.index)
                  .set("attempts", f.attempts)
                  .set("error", f.error));
  }
  return list;
}

}  // namespace pds
