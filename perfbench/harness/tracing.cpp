#include "tracing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pdsbench {

const char* span_name(SpanName s) {
  static constexpr const char* kNames[] = {
      "event:traffic.source", "event:link.tx",     "event:flow.issue",
      "event:flow.rto",       "event:dsim.periodic", "event:other",
      "link.arrive",          "sched.enqueue",     "sched.dequeue",
      "stats.record",         "net.route_exit",    "flows.on_route_exit",
      "obs.metrics",          "obs.conformance",   "obs.trace",
      "obs.profiler",         "root"};
  return kNames[s];
}

int LogHist::bucket(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<int>(v);
  const int octave = 63 - std::countl_zero(v);  // >= 4
  const auto sub = static_cast<int>((v >> (octave - 4)) & (kSub - 1));
  return (octave - 3) * kSub + sub;
}

double LogHist::lower_edge(int b) noexcept {
  if (b < kSub) return b;
  const int octave = b / kSub + 3;
  const int sub = b % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), octave - 4);
}

double LogHist::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank && buckets_[b] > 0) return lower_edge(b);
  }
  return lower_edge(kBuckets - 1);
}

void LogHist::merge(const LogHist& o) noexcept {
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
  count_ += o.count_;
  max_ = std::max(max_, o.max_);
}

SpanRecorder::SpanRecorder() : cells_((kSpanNames + 1) * kSpanNames) {}

SpanAgg SpanRecorder::total(SpanName name) const {
  SpanAgg out;
  for (int parent = 0; parent <= kSpanNames; ++parent) {
    const SpanAgg& a = cells_[parent * kSpanNames + name];
    out.count += a.count;
    out.total_ns += a.total_ns;
    out.self_ns += a.self_ns;
    out.dur_ns.merge(a.dur_ns);
  }
  return out;
}

std::int64_t SpanRecorder::root_ns() const {
  std::int64_t ns = 0;
  for (int name = 0; name < kSpanNames; ++name) {
    ns += cells_[kRoot * kSpanNames + name].total_ns;
  }
  return ns;
}

void SpanRecorder::write(std::ostream& os) const {
  os << "parent\tname\tcount\ttotal_ms\tself_ms\tp50_ns\tp99_ns\n";
  for (int parent = 0; parent <= kSpanNames; ++parent) {
    for (int name = 0; name < kSpanNames; ++name) {
      const SpanAgg& a = cells_[parent * kSpanNames + name];
      if (a.count == 0) continue;
      os << span_name(static_cast<SpanName>(parent)) << '\t'
         << span_name(static_cast<SpanName>(name)) << '\t' << a.count << '\t'
         << static_cast<double>(a.total_ns) / 1e6 << '\t'
         << static_cast<double>(a.self_ns) / 1e6 << '\t'
         << a.dur_ns.quantile(0.5) << '\t' << a.dur_ns.quantile(0.99) << '\n';
    }
  }
}

SpanName TracingMonitor::classify(const char* label) noexcept {
  for (std::size_t i = 0; i < seen_count_; ++i) {
    if (seen_[i].first == label) return seen_[i].second;
  }
  SpanName name = kEvOther;
  if (label != nullptr) {
    if (std::strcmp(label, "traffic.source") == 0) name = kEvTrafficSource;
    if (std::strcmp(label, "link.tx") == 0) name = kEvLinkTx;
    if (std::strcmp(label, "flow.issue") == 0) name = kEvFlowIssue;
    if (std::strcmp(label, "flow.rto") == 0) name = kEvFlowRto;
    if (std::strcmp(label, "dsim.periodic") == 0) name = kEvPeriodic;
  }
  if (seen_count_ < seen_.size()) seen_[seen_count_++] = {label, name};
  return name;
}

void TracingMonitor::on_event_begin(pds::SimTime now, const char* label,
                                    std::size_t pending) noexcept {
  const SpanName name = classify(label);
  ++counts_[name];
  pending_.add(pending);
  rec_.begin(name);
  if (inner_ != nullptr) {
    Scope s(rec_, kObsProfiler);
    inner_->on_event_begin(now, label, pending);
  }
}

void TracingMonitor::on_event_end(pds::SimTime now,
                                  const char* label) noexcept {
  if (inner_ != nullptr) {
    Scope s(rec_, kObsProfiler);
    inner_->on_event_end(now, label);
  }
  rec_.end();
}

void TracedScheduler::enqueue(pds::Packet p, pds::SimTime now) {
  Scope s(rec_, kSchedEnqueue);
  const pds::Packet copy = p;
  inner_.enqueue(std::move(p), now);
  backlog_.add(inner_.total_backlog_packets());
  notify_enqueued(copy, now);
}

std::optional<pds::Packet> TracedScheduler::dequeue(pds::SimTime now) {
  Scope s(rec_, kSchedDequeue);
  ++decisions_;
  return inner_.dequeue(now);
}

std::uint32_t TracedScheduler::dequeue_burst(pds::SimTime now,
                                             pds::Packet* out,
                                             std::uint32_t max_k) {
  Scope s(rec_, kSchedDequeue);
  ++decisions_;
  return inner_.dequeue_burst(now, out, max_k);
}

}  // namespace pdsbench
