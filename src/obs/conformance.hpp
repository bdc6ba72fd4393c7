// Live DDP conformance monitoring (paper Eq. 2, interval form).
//
// The proportional delay differentiation model asks that, over every
// monitoring interval of length tau, adjacent-class average delays satisfy
// d_c / d_{c+1} = s_{c+1} / s_c (higher class index = larger SDP = smaller
// delay, per packet.hpp). ConformanceMonitor checks this online: departures
// feed record(cls, delay, now); each time the clock crosses a tau boundary
// the finished window is scored per adjacent pair, the relative ratio error
// |observed/target - 1| is compared against a tolerance, and windows that
// miss become structured ConformanceViolation events (with the active fault
// episode attributed, when a fault context is bound).
//
// A pair's ratio is only *defined* in a window where both classes have at
// least `min_samples` departures (Eq. 2's feasibility caveat: short
// timescales with idle classes make the ratio meaningless); undefined pairs
// are counted but never violations.
//
// Everything here is driven by simulation time and departures only — output
// is deterministic and byte-identical for any --jobs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsim/time.hpp"
#include "packet/packet.hpp"

namespace pds {

class MetricsRegistry;
class Gauge;
class Counter;
class AtomicOutFile;

struct ConformanceOptions {
  SimTime tau = 0.0;          // window length; <= 0 disables the monitor
  SimTime start = 0.0;        // ignore departures before this (warmup)
  double tolerance = 0.25;    // violation when |obs/target - 1| exceeds this
  std::uint64_t min_samples = 10;  // per class per window for a defined pair

  bool enabled() const noexcept { return tau > 0.0; }
};

// One adjacent-pair miss in one window.
struct ConformanceViolation {
  std::uint64_t window = 0;  // window ordinal since `start`
  SimTime t0 = 0.0;          // window bounds
  SimTime t1 = 0.0;
  ClassId lo = 0;            // pair (lo, lo+1)
  double observed = 0.0;     // window mean_delay[lo] / mean_delay[lo+1]
  double target = 0.0;       // sdp[lo+1] / sdp[lo]
  double error = 0.0;        // |observed/target - 1|
  std::string fault;         // active fault episodes at window close, if any
};

struct ConformanceSummary {
  std::uint64_t windows = 0;          // closed windows (incl. empty ones)
  std::uint64_t pairs_checked = 0;    // defined pair-windows scored
  std::uint64_t pairs_undefined = 0;  // pair-windows below min_samples
  std::uint64_t violations = 0;
  std::uint64_t violations_during_faults = 0;
  double max_error = 0.0;   // over checked pair-windows
  double mean_error = 0.0;  // over checked pair-windows
  std::vector<std::uint64_t> per_pair_violations;  // size classes-1
};

class ConformanceMonitor {
 public:
  // `sdp` is the scheduler's differentiation vector (defines class count and
  // the per-pair targets). Throws std::invalid_argument on fewer than two
  // classes or non-positive SDPs when options.enabled().
  ConformanceMonitor(const std::vector<double>& sdp,
                     const ConformanceOptions& options);

  bool enabled() const noexcept { return options_.enabled(); }

  // Optional integrations, all bound before the run starts:
  //  * metrics: per-pair gauges `conformance.err.<lo>_<hi>` (latest window's
  //    defined error) and counter `conformance.violations`, resolved once
  //    here (name them with set_class_namer first).
  //  * fault context: called at window close to stamp violations with the
  //    currently active fault episodes (e.g. FaultInjector::active_summary).
  //  * sink: invoked once per violation as it is detected (JSONL streaming).
  //  * class names: display names for metric keys and reports (defaults to
  //    "c<index>", callers may pass the paper's 1-based labels).
  void set_class_namer(std::function<std::string(ClassId)> namer);
  void bind_metrics(MetricsRegistry& registry);
  void set_fault_context(std::function<std::string()> context);
  void set_violation_sink(std::function<void(const ConformanceViolation&)> sink);

  // One departed packet of class `cls` with queueing delay `delay` at
  // simulation time `now`. `now` must be non-decreasing across calls.
  void record(ClassId cls, double delay, SimTime now);

  // Closes the trailing partial window (if it has any samples). Idempotent;
  // record() after finish() is ignored.
  void finish();

  const std::vector<ConformanceViolation>& violations() const noexcept {
    return violations_;
  }
  ConformanceSummary summary() const;

  std::uint64_t windows_closed() const noexcept { return windows_; }

  // Signed per-pair ratio errors (observed/target - 1) of the most recently
  // closed window, NaN where the pair was undefined; size classes-1 (empty
  // while disabled). This is the feedback signal the ctrl/ Controller
  // samples: the sign says which way the observed ratio missed (positive ==
  // the lower class waited proportionally too long).
  const std::vector<double>& last_window_errors() const noexcept {
    return last_signed_;
  }

 private:
  void advance_to(SimTime now);
  void close_window();
  bool bucket_empty() const noexcept;

  ConformanceOptions options_;
  std::vector<double> target_;  // per pair: sdp[c+1] / sdp[c]
  std::function<std::string(ClassId)> namer_;
  std::function<std::string()> fault_context_;
  std::function<void(const ConformanceViolation&)> sink_;
  std::vector<Gauge*> err_gauges_;  // per pair; empty until bind_metrics
  Counter* violations_counter_ = nullptr;

  SimTime bucket_start_ = 0.0;
  std::vector<double> sum_;
  std::vector<std::uint64_t> count_;
  bool finished_ = false;

  std::uint64_t windows_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t undefined_ = 0;
  std::uint64_t during_faults_ = 0;
  double err_sum_ = 0.0;
  double err_max_ = 0.0;
  std::vector<std::uint64_t> per_pair_violations_;
  std::vector<double> last_signed_;  // see last_window_errors()
  std::vector<ConformanceViolation> violations_;
};

// Streams violations as JSON Lines through an atomic file (tmp + rename on
// close; an unwound run leaves no partial file). One object per line:
//   {"window":3,"t0":1500,"t1":2000,"lo":"c1","hi":"c2",
//    "observed":2.31,"target":2,"error":0.155,"fault":"link_down link"}
class ViolationLog {
 public:
  // `namer` maps class indices to display names (same convention as
  // ConformanceMonitor::set_class_namer).
  ViolationLog(const std::string& path,
               std::function<std::string(ClassId)> namer = {});
  ~ViolationLog();

  void write(const ConformanceViolation& v);
  void close();  // commits; throws on I/O failure

  std::uint64_t written() const noexcept { return written_; }

 private:
  std::unique_ptr<AtomicOutFile> out_;
  std::function<std::string(ClassId)> namer_;
  std::uint64_t written_ = 0;
};

}  // namespace pds
