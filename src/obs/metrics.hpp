// Named runtime metrics and the windowed snapshot writer.
//
// A MetricsRegistry holds three metric kinds under unique dotted names
// (naming scheme: `<subsystem>.<object>.<field>`, e.g. `backlog.c1.pkts`):
//
//  * Counter — monotone event count (cumulative total + per-window delta).
//  * Gauge   — last-write-wins instantaneous value (backlog, ratios).
//  * Summary — streaming distribution (RunningStats) kept twice: over the
//              current monitoring window and over the whole run.
//
// The MetricsSnapshotWriter is the runtime analogue of the paper's Eq. 2
// short-timescale view: a PeriodicProcess samples every metric each
// monitoring window tau, appends one row per metric to a CSV or JSONL time
// series (format chosen by file extension), and resets the window state.
// A `pre_snapshot` callback lets the owner refresh pull-style gauges (e.g.
// per-class backlog read off the scheduler) just before each sample.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "dsim/time.hpp"
#include "stats/running_stats.hpp"
#include "util/atomic_file.hpp"

namespace pds {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    total_ += n;
    window_ += n;
  }

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t window_delta() const noexcept { return window_; }

  void reset_window() noexcept { window_ = 0; }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t window_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Summary {
 public:
  void observe(double x) noexcept {
    window_.add(x);
    total_.add(x);
  }

  const RunningStats& window() const noexcept { return window_; }
  const RunningStats& total() const noexcept { return total_; }

  void reset_window() noexcept { window_ = RunningStats{}; }

 private:
  RunningStats window_;
  RunningStats total_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name; references stay valid for the registry's
  // lifetime. A name identifies exactly one metric kind — reusing it with a
  // different kind throws std::invalid_argument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Summary& summary(const std::string& name);

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + summaries_.size();
  }

  // Clears every counter delta and window summary (gauges keep their value).
  // Called by the snapshot writer after each sample.
  void reset_windows();

  // Deterministic (name-ordered) iteration for writers and tests.
  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Summary>& summaries() const noexcept {
    return summaries_;
  }

 private:
  void check_unique(const std::string& name, const char* kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Summary> summaries_;
};

enum class MetricsFormat { kCsv, kJsonl };

// One parsed row of a metrics CSV file (NaN marks absent fields). Shared by
// trace_inspect and the tests.
struct MetricsRow {
  double time = 0.0;
  std::string name;
  std::string type;
  double value = 0.0;
  double count = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

std::vector<MetricsRow> load_metrics_csv(const std::string& path);

class MetricsSnapshotWriter {
 public:
  // Samples `registry` every `window` time units starting at t = window (the
  // first row closes the window [0, window]) and appends rows to `path`
  // (.jsonl => JSON lines, anything else => CSV with a header row). Throws
  // std::runtime_error when the file cannot be opened. `pre_snapshot`, when
  // set, runs before every sample so the caller can refresh gauges.
  //
  // Output is atomic (util/atomic_file.hpp): rows accumulate in
  // `path + ".tmp"` and the file appears under its final name only when
  // flush() (or a non-unwinding destructor) commits it. A run that dies with
  // an exception leaves no partial metrics file.
  MetricsSnapshotWriter(Simulator& sim, MetricsRegistry& registry,
                        const std::string& path, SimTime window,
                        std::function<void(SimTime)> pre_snapshot = {});
  ~MetricsSnapshotWriter();

  MetricsSnapshotWriter(const MetricsSnapshotWriter&) = delete;
  MetricsSnapshotWriter& operator=(const MetricsSnapshotWriter&) = delete;

  // Writes a final partial-window snapshot at the current simulation time
  // (no-op if a row for this instant was already written) and commits the
  // file. Call once after the run; the destructor does NOT snapshot because
  // the simulator may already be out of scope by then (it still commits the
  // rows written so far, unless unwinding).
  void flush();

  std::uint64_t snapshots_written() const noexcept { return snapshots_; }
  SimTime window() const noexcept { return window_; }

  static MetricsFormat format_for_path(const std::string& path);

 private:
  void write_snapshot(SimTime now);

  Simulator& sim_;
  MetricsRegistry& registry_;
  AtomicOutFile out_;
  MetricsFormat format_;
  SimTime window_;
  std::function<void(SimTime)> pre_snapshot_;
  SimTime last_time_ = -1.0;
  std::uint64_t snapshots_ = 0;
  std::string buf_;  // one snapshot's rows, reused across snapshots
  std::unique_ptr<PeriodicProcess> ticker_;
};

}  // namespace pds
