#include "obs/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/number_text.hpp"

namespace pds {

namespace {

std::string default_class_name(ClassId c) {
  return "c" + std::to_string(c);
}

}  // namespace

ConformanceMonitor::ConformanceMonitor(const std::vector<double>& sdp,
                                       const ConformanceOptions& options)
    : options_(options), namer_(default_class_name) {
  if (!options_.enabled()) return;
  if (sdp.size() < 2) {
    throw std::invalid_argument(
        "conformance monitoring needs at least two classes");
  }
  target_.reserve(sdp.size() - 1);
  for (std::size_t c = 0; c + 1 < sdp.size(); ++c) {
    if (sdp[c] <= 0.0 || sdp[c + 1] <= 0.0) {
      throw std::invalid_argument("SDPs must be positive");
    }
    // Higher class = larger SDP = smaller delay: d_c/d_{c+1} = s_{c+1}/s_c.
    target_.push_back(sdp[c + 1] / sdp[c]);
  }
  sum_.assign(sdp.size(), 0.0);
  count_.assign(sdp.size(), 0);
  per_pair_violations_.assign(sdp.size() - 1, 0);
  last_signed_.assign(sdp.size() - 1,
                      std::numeric_limits<double>::quiet_NaN());
  bucket_start_ = options_.start;
}

void ConformanceMonitor::set_class_namer(
    std::function<std::string(ClassId)> namer) {
  if (namer) namer_ = std::move(namer);
}

void ConformanceMonitor::bind_metrics(MetricsRegistry& registry) {
  if (!enabled()) return;
  err_gauges_.clear();
  for (ClassId c = 0; c + 1 < count_.size(); ++c) {
    err_gauges_.push_back(&registry.gauge("conformance.err." + namer_(c) +
                                          "_" + namer_(c + 1)));
  }
  violations_counter_ = &registry.counter("conformance.violations");
}

void ConformanceMonitor::set_fault_context(
    std::function<std::string()> context) {
  fault_context_ = std::move(context);
}

void ConformanceMonitor::set_violation_sink(
    std::function<void(const ConformanceViolation&)> sink) {
  sink_ = std::move(sink);
}

void ConformanceMonitor::record(ClassId cls, double delay, SimTime now) {
  if (!enabled() || finished_) return;
  if (now < options_.start) return;
  if (cls >= count_.size()) return;
  advance_to(now);
  sum_[cls] += delay;
  ++count_[cls];
}

void ConformanceMonitor::advance_to(SimTime now) {
  while (now >= bucket_start_ + options_.tau) {
    close_window();
    bucket_start_ += options_.tau;
    if (bucket_empty() && now >= bucket_start_ + options_.tau) {
      // Fast-forward a long empty stretch (e.g. a source outage) without
      // per-window work, keeping the accounting identical to closing each
      // empty window: all pairs undefined.
      const auto skip = static_cast<std::uint64_t>(
          std::floor((now - bucket_start_) / options_.tau));
      if (skip > 0) {
        windows_ += skip;
        undefined_ += skip * target_.size();
        bucket_start_ += static_cast<double>(skip) * options_.tau;
        for (double& e : last_signed_) {
          e = std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
  }
}

bool ConformanceMonitor::bucket_empty() const noexcept {
  for (const std::uint64_t n : count_) {
    if (n > 0) return false;
  }
  return true;
}

void ConformanceMonitor::close_window() {
  const std::uint64_t window = windows_++;
  const SimTime t0 = bucket_start_;
  const SimTime t1 = bucket_start_ + options_.tau;
  std::string fault;
  bool fault_queried = false;
  for (ClassId c = 0; c + 1 < count_.size(); ++c) {
    const bool defined = count_[c] >= options_.min_samples &&
                         count_[c + 1] >= options_.min_samples &&
                         sum_[c + 1] > 0.0;
    if (!defined) {
      ++undefined_;
      last_signed_[c] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    ++checked_;
    const double mean_lo = sum_[c] / static_cast<double>(count_[c]);
    const double mean_hi = sum_[c + 1] / static_cast<double>(count_[c + 1]);
    const double observed = mean_lo / mean_hi;
    const double target = target_[c];
    const double error = std::fabs(observed / target - 1.0);
    last_signed_[c] = observed / target - 1.0;
    err_sum_ += error;
    if (error > err_max_) err_max_ = error;
    if (!err_gauges_.empty()) err_gauges_[c]->set(error);
    if (error > options_.tolerance) {
      if (!fault_queried) {
        if (fault_context_) fault = fault_context_();
        fault_queried = true;
      }
      ConformanceViolation v;
      v.window = window;
      v.t0 = t0;
      v.t1 = t1;
      v.lo = c;
      v.observed = observed;
      v.target = target;
      v.error = error;
      v.fault = fault;
      ++per_pair_violations_[c];
      if (!fault.empty()) ++during_faults_;
      if (violations_counter_ != nullptr) violations_counter_->inc();
      if (sink_) sink_(v);
      violations_.push_back(std::move(v));
    }
  }
  std::fill(sum_.begin(), sum_.end(), 0.0);
  std::fill(count_.begin(), count_.end(), 0);
}

void ConformanceMonitor::finish() {
  if (!enabled() || finished_) return;
  finished_ = true;
  if (!bucket_empty()) close_window();
}

ConformanceSummary ConformanceMonitor::summary() const {
  ConformanceSummary s;
  s.windows = windows_;
  s.pairs_checked = checked_;
  s.pairs_undefined = undefined_;
  s.violations = violations_.size();
  s.violations_during_faults = during_faults_;
  s.max_error = err_max_;
  s.mean_error = checked_ > 0 ? err_sum_ / static_cast<double>(checked_) : 0.0;
  s.per_pair_violations = per_pair_violations_;
  return s;
}

ViolationLog::ViolationLog(const std::string& path,
                           std::function<std::string(ClassId)> namer)
    : out_(std::make_unique<AtomicOutFile>(path)),
      namer_(namer ? std::move(namer) : default_class_name) {}

ViolationLog::~ViolationLog() = default;

void ViolationLog::write(const ConformanceViolation& v) {
  std::string line;
  TextAppender os(line);
  os << "{\"window\":" << v.window << ",\"t0\":" << v.t0
     << ",\"t1\":" << v.t1 << ",\"lo\":\"" << namer_(v.lo)
     << "\",\"hi\":\"" << namer_(v.lo + 1)
     << "\",\"observed\":" << v.observed
     << ",\"target\":" << v.target << ",\"error\":" << v.error
     << ",\"fault\":\"" << v.fault << "\"}\n";
  out_->stream().write(line.data(), static_cast<std::streamsize>(line.size()));
  ++written_;
}

void ViolationLog::close() { out_->close(); }

}  // namespace pds
