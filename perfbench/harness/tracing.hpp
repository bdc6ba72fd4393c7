// In-memory span recording for the traced binary. Spans are opened and
// closed at layer boundaries by forwarding decorators around the
// simulator's public interfaces (Scheduler, PacketProbe, SimMonitor) and by
// the benchmark's own handlers; nothing inside the simulator is instrumented.
//
// Each closed span is folded into a per-(parent, name) aggregate: count,
// total and self time (duration minus the time its child spans cover), and
// a log-bucketed duration histogram for p50/p99. All storage is allocated
// up front, so recording never touches the heap during the run phase.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <vector>

#include "dsim/simulator.hpp"
#include "obs/probe.hpp"
#include "sched/scheduler.hpp"

namespace pdsbench {

enum SpanName : std::uint8_t {
  // Kernel events, by SimEvent label.
  kEvTrafficSource,
  kEvLinkTx,
  kEvFlowIssue,
  kEvFlowRto,
  kEvPeriodic,
  kEvOther,
  // Calls into layers, opened by decorators and handlers.
  kLinkArrive,
  kSchedEnqueue,
  kSchedDequeue,
  kStatsRecord,
  kRouteExit,
  kFlowsExit,
  kObsMetrics,
  kObsConformance,
  kObsTrace,
  kObsProfiler,
  kSpanNames,
  kRoot = kSpanNames,  // parent of top-level spans
};

const char* span_name(SpanName s);

inline std::int64_t clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-bucketed histogram of non-negative values: 16 buckets per octave
// (about 4% resolution), exact below 16.
class LogHist {
 public:
  void add(std::uint64_t v) noexcept {
    ++buckets_[bucket(v)];
    ++count_;
    if (v > max_) max_ = v;
  }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max() const noexcept { return max_; }
  // Lower edge of the bucket holding quantile q in [0,1]; 0 when empty.
  double quantile(double q) const noexcept;
  void merge(const LogHist& o) noexcept;

 private:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;
  static int bucket(std::uint64_t v) noexcept;
  static double lower_edge(int b) noexcept;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

struct SpanAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  LogHist dur_ns;
};

class SpanRecorder {
 public:
  SpanRecorder();

  void begin(SpanName name) noexcept {
    Frame& f = stack_[depth_++];
    f.name = name;
    f.child_ns = 0;
    f.start = clock_ns();
  }
  void end() noexcept {
    const std::int64_t t = clock_ns();
    const Frame& f = stack_[--depth_];
    const std::int64_t dur = t - f.start;
    SpanName parent = kRoot;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
      parent = stack_[depth_ - 1].name;
    }
    SpanAgg& a = cells_[parent * kSpanNames + f.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - f.child_ns;
    a.dur_ns.add(static_cast<std::uint64_t>(dur));
  }

  // Aggregate of one name over all parents.
  SpanAgg total(SpanName name) const;
  // Sum of top-level span durations (kernel events: the time spent inside
  // event actions).
  std::int64_t root_ns() const;

  // One line per (parent, name) pair that was seen.
  void write(std::ostream& os) const;

 private:
  struct Frame {
    SpanName name = kRoot;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
  };
  std::array<Frame, 32> stack_{};
  int depth_ = 0;
  std::vector<SpanAgg> cells_;  // (kSpanNames + 1) x kSpanNames
};

class Scope {
 public:
  Scope(SpanRecorder& rec, SpanName name) : rec_(rec) { rec_.begin(name); }
  ~Scope() { rec_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
};

// Kernel observer: one span per executed event (named by its label), the
// pending-event distribution, and optional forwarding to an inner monitor
// (the profiler of the monitored workload), timed as its own span.
class TracingMonitor final : public pds::SimMonitor {
 public:
  TracingMonitor(SpanRecorder& rec, pds::SimMonitor* inner)
      : rec_(rec), inner_(inner) {}

  void on_event_begin(pds::SimTime now, const char* label,
                      std::size_t pending) noexcept override;
  void on_event_end(pds::SimTime now, const char* label) noexcept override;

  const LogHist& pending() const noexcept { return pending_; }
  std::uint64_t events(SpanName name) const noexcept { return counts_[name]; }

 private:
  SpanName classify(const char* label) noexcept;

  SpanRecorder& rec_;
  pds::SimMonitor* inner_;
  LogHist pending_;
  std::array<std::uint64_t, kSpanNames> counts_{};
  std::array<std::pair<const char*, SpanName>, 8> seen_{};
  std::size_t seen_count_ = 0;
};

// Forwarding Scheduler decorator: times enqueue/dequeue, counts scheduler
// decisions, and samples the total backlog after each enqueue. The
// lifecycle probe is fired here (the inner scheduler has none attached) so
// a probed link records exactly what it would without the decorator.
class TracedScheduler final : public pds::Scheduler {
 public:
  TracedScheduler(pds::Scheduler& inner, SpanRecorder& rec, LogHist& backlog)
      : inner_(inner), rec_(rec), backlog_(backlog) {}

  void enqueue(pds::Packet p, pds::SimTime now) override;
  std::optional<pds::Packet> dequeue(pds::SimTime now) override;
  std::uint32_t dequeue_burst(pds::SimTime now, pds::Packet* out,
                              std::uint32_t max_k) override;
  std::string_view name() const noexcept override { return inner_.name(); }
  std::optional<pds::Packet> drop_tail(pds::ClassId cls) override {
    return inner_.drop_tail(cls);
  }
  bool empty() const noexcept override { return inner_.empty(); }
  std::uint32_t num_classes() const noexcept override {
    return inner_.num_classes();
  }
  std::uint64_t backlog_packets(pds::ClassId cls) const override {
    return inner_.backlog_packets(cls);
  }
  std::uint64_t backlog_bytes(pds::ClassId cls) const override {
    return inner_.backlog_bytes(cls);
  }
  void set_weights(const std::vector<double>& sdp) override {
    inner_.set_weights(sdp);
  }
  std::uint64_t total_backlog_packets() const override {
    return inner_.total_backlog_packets();
  }
  pds::SimTime max_head_wait(pds::SimTime now) const override {
    return inner_.max_head_wait(now);
  }

  std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  pds::Scheduler& inner_;
  SpanRecorder& rec_;
  LogHist& backlog_;
  std::uint64_t decisions_ = 0;
};

// Forwarding PacketProbe decorator timing every lifecycle callback.
class TracedProbe final : public pds::PacketProbe {
 public:
  TracedProbe(pds::PacketProbe& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_arrive(const pds::Packet& p, const pds::ProbeContext& ctx,
                 pds::SimTime now) override {
    Scope s(rec_, kObsTrace);
    inner_.on_arrive(p, ctx, now);
  }
  void on_enqueue(const pds::Packet& p, const pds::ProbeContext& ctx,
                  pds::SimTime now) override {
    Scope s(rec_, kObsTrace);
    inner_.on_enqueue(p, ctx, now);
  }
  void on_dequeue(const pds::Packet& p, const pds::ProbeContext& ctx,
                  pds::SimTime now, pds::SimTime wait) override {
    Scope s(rec_, kObsTrace);
    inner_.on_dequeue(p, ctx, now, wait);
  }
  void on_depart(const pds::Packet& p, const pds::ProbeContext& ctx,
                 pds::SimTime now, pds::SimTime wait) override {
    Scope s(rec_, kObsTrace);
    inner_.on_depart(p, ctx, now, wait);
  }
  void on_drop(const pds::Packet& p, const pds::ProbeContext& ctx,
               pds::SimTime now) override {
    Scope s(rec_, kObsTrace);
    inner_.on_drop(p, ctx, now);
  }

 private:
  pds::PacketProbe& inner_;
  SpanRecorder& rec_;
};

}  // namespace pdsbench
