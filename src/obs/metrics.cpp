#include "obs/metrics.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/number_text.hpp"

namespace pds {

void MetricsRegistry::check_unique(const std::string& name,
                                   const char* kind) const {
  const bool c = counters_.count(name) > 0;
  const bool g = gauges_.count(name) > 0;
  const bool s = summaries_.count(name) > 0;
  if (kind[0] != 'c') PDS_CHECK(!c, "name already used by a counter: " + name);
  if (kind[0] != 'g') PDS_CHECK(!g, "name already used by a gauge: " + name);
  if (kind[0] != 's') PDS_CHECK(!s, "name already used by a summary: " + name);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  PDS_CHECK(!name.empty(), "metric name must be non-empty");
  check_unique(name, "counter");
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  PDS_CHECK(!name.empty(), "metric name must be non-empty");
  check_unique(name, "gauge");
  return gauges_[name];
}

Summary& MetricsRegistry::summary(const std::string& name) {
  PDS_CHECK(!name.empty(), "metric name must be non-empty");
  check_unique(name, "summary");
  return summaries_[name];
}

void MetricsRegistry::reset_windows() {
  for (auto& [name, c] : counters_) c.reset_window();
  for (auto& [name, s] : summaries_) s.reset_window();
}

// ------------------------------------------------------------------ writer

MetricsFormat MetricsSnapshotWriter::format_for_path(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot != std::string::npos && path.substr(dot) == ".jsonl") {
    return MetricsFormat::kJsonl;
  }
  return MetricsFormat::kCsv;
}

MetricsSnapshotWriter::MetricsSnapshotWriter(
    Simulator& sim, MetricsRegistry& registry, const std::string& path,
    SimTime window, std::function<void(SimTime)> pre_snapshot)
    : sim_(sim),
      registry_(registry),
      out_(path),
      format_(format_for_path(path)),
      window_(window),
      pre_snapshot_(std::move(pre_snapshot)) {
  PDS_CHECK(window > 0.0, "monitoring window must be positive");
  if (format_ == MetricsFormat::kCsv) {
    out_.stream() << "time,name,type,value,count,mean,stddev,min,max\n";
  }
  ticker_ = std::make_unique<PeriodicProcess>(
      sim_, sim_.now() + window_, window_,
      [this](SimTime now) { write_snapshot(now); });
}

MetricsSnapshotWriter::~MetricsSnapshotWriter() = default;

void MetricsSnapshotWriter::flush() {
  if (ticker_) ticker_->cancel();
  if (sim_.now() > last_time_) write_snapshot(sim_.now());
  out_.close();  // commit: tmp renames onto the final path
}

void MetricsSnapshotWriter::write_snapshot(SimTime now) {
  if (pre_snapshot_) pre_snapshot_(now);
  buf_.clear();
  TextAppender out(buf_);
  char time[kNumberTextMax];
  const std::string_view t(time, to_text(time, now));  // rendered once
  if (format_ == MetricsFormat::kCsv) {
    for (const auto& [name, c] : registry_.counters()) {
      out << t << ',' << name << ",counter," << c.total() << ','
          << c.window_delta() << ",,,,\n";
    }
    for (const auto& [name, g] : registry_.gauges()) {
      out << t << ',' << name << ",gauge," << g.value() << ",,,,,\n";
    }
    for (const auto& [name, s] : registry_.summaries()) {
      const RunningStats& w = s.window();
      out << t << ',' << name << ",summary,," << w.count();
      if (w.count() > 0) {
        out << ',' << w.mean() << ',' << w.stddev() << ',' << w.min() << ','
            << w.max();
      } else {
        out << ",,,,";
      }
      out << '\n';
    }
  } else {
    for (const auto& [name, c] : registry_.counters()) {
      out << "{\"time\":" << t << ",\"name\":\"" << name
          << "\",\"type\":\"counter\",\"value\":" << c.total()
          << ",\"count\":" << c.window_delta() << "}\n";
    }
    for (const auto& [name, g] : registry_.gauges()) {
      out << "{\"time\":" << t << ",\"name\":\"" << name
          << "\",\"type\":\"gauge\",\"value\":" << g.value() << "}\n";
    }
    for (const auto& [name, s] : registry_.summaries()) {
      const RunningStats& w = s.window();
      out << "{\"time\":" << t << ",\"name\":\"" << name
          << "\",\"type\":\"summary\",\"count\":" << w.count();
      if (w.count() > 0) {
        out << ",\"mean\":" << w.mean() << ",\"stddev\":" << w.stddev()
            << ",\"min\":" << w.min() << ",\"max\":" << w.max();
      }
      out << "}\n";
    }
  }
  // One write per snapshot and no flush: the file is published only at
  // close(), so no reader could see an intermediate flush anyway.
  out_.stream().write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  registry_.reset_windows();
  last_time_ = now;
  ++snapshots_;
}

// ------------------------------------------------------------------ loader

std::vector<MetricsRow> load_metrics_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open metrics file: " + path);
  std::vector<MetricsRow> rows;
  std::string line;
  bool first = true;
  const double nan = std::nan("");
  while (std::getline(in, line)) {
    if (first) {  // header
      first = false;
      PDS_CHECK(line.rfind("time,name,type", 0) == 0,
                "not a metrics CSV (bad header): " + path);
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls(line);
    while (std::getline(ls, field, ',')) fields.push_back(field);
    fields.resize(9);  // trailing empty fields may be dropped by getline
    MetricsRow row;
    row.time = std::stod(fields[0]);
    row.name = fields[1];
    row.type = fields[2];
    const auto num = [&](const std::string& s) {
      return s.empty() ? nan : std::stod(s);
    };
    row.value = num(fields[3]);
    row.count = num(fields[4]);
    row.mean = num(fields[5]);
    row.stddev = num(fields[6]);
    row.min = num(fields[7]);
    row.max = num(fields[8]);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace pds
