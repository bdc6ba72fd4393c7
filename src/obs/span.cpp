#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <tuple>

#include "util/atomic_file.hpp"
#include "util/number_text.hpp"

namespace pds {

namespace {

constexpr std::uint32_t kSpanCellTid = 2;

// Trace timestamps carry wall micros or scaled sim time; render integral
// values exactly and everything else with fixed sub-microsecond precision so
// equal inputs always produce equal bytes.
std::string fmt_us(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    os << static_cast<long long>(v);
  } else {
    os.setf(std::ios::fixed);
    os.precision(3);
    os << v;
  }
  return os.str();
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

// Mirrors the pool's contiguous split of [0, count) into
// min(workers, count) shards: which shard does cell `i` start in?
std::uint32_t home_shard(std::size_t i, std::size_t count,
                         std::uint32_t workers) {
  const std::size_t shards =
      std::min<std::size_t>(workers > 0 ? workers : 1, count);
  const std::size_t base = count / shards;
  const std::size_t rem = count % shards;
  const std::size_t big = rem * (base + 1);  // cells in the rem larger shards
  if (i < big) return static_cast<std::uint32_t>(i / (base + 1));
  return static_cast<std::uint32_t>(rem + (i - big) / base);
}

std::string cell_args(const CellRecord& cell) {
  std::ostringstream os;
  os << "\"index\":" << cell.index << ",\"work\":" << cell.work
     << ",\"attempts\":" << cell.attempts << ",\"failed\":"
     << (cell.failed ? "true" : "false");
  return os.str();
}

void render_event(std::ostringstream& os, const Span& s) {
  os << "{\"name\":\"" << escape_json(s.name) << "\",\"cat\":\""
     << escape_json(s.cat) << "\",\"ph\":\"X\",\"ts\":" << fmt_us(s.ts)
     << ",\"dur\":" << fmt_us(s.dur) << ",\"pid\":" << s.pid
     << ",\"tid\":" << s.tid;
  if (!s.args.empty()) os << ",\"args\":{" << s.args << "}";
  os << "}";
}

void render_meta(std::ostringstream& os, const char* name, std::uint32_t pid,
                 const std::uint32_t* tid, const std::string& value) {
  os << "{\"name\":\"" << name << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid != nullptr) os << ",\"tid\":" << *tid;
  os << ",\"args\":{\"name\":\"" << escape_json(value) << "\"}}";
}

std::string track_process_name(std::uint32_t pid) {
  if (pid == kSpanSimPid) return "sim";
  std::ostringstream os;
  os << "worker " << (pid - 1);
  return os.str();
}

std::string track_thread_name(std::uint32_t pid, std::uint32_t tid) {
  if (pid == kSpanSimPid) {
    if (tid == kSpanKernelTid) return "kernel";
    if (tid == kSpanFaultTid) return "fault";
    if (tid == kSpanCellTid) return "cells";
    std::ostringstream os;
    os << "track " << tid;
    return os.str();
  }
  std::ostringstream os;
  os << "shard " << tid;
  return os.str();
}

}  // namespace

SpanTracer::SpanTracer(SpanMode mode) : mode_(mode) {}

void SpanTracer::add_sweep(const SweepTelemetry& telemetry) {
  const std::size_t count = telemetry.cells.size();
  if (count == 0) return;
  if (mode_ == SpanMode::kDeterministic) {
    // Virtual timeline: cells back to back in grid order, 1 us per unit of
    // the deterministic work measure (minimum 1 us so empty cells render).
    double at = 0.0;
    for (const CellRecord& cell : telemetry.cells) {
      const double dur =
          cell.work > 0 ? static_cast<double>(cell.work) : 1.0;
      std::ostringstream name;
      name << "cell " << cell.index;
      buffer_.emit(Span{at, dur, kSpanSimPid, kSpanCellTid, name.str(),
                        "sweep.cell", cell_args(cell)});
      at += dur;
    }
    return;
  }

  // Wall mode: real placement. Run spans on (pid = worker + 1, tid = home
  // shard); idle gaps between consecutive cells on the same worker become
  // "wait" spans; the tail from the last cell end to sweep end is the
  // assembly (result collection + stats fold) span.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CellRecord& ca = telemetry.cells[a];
    const CellRecord& cb = telemetry.cells[b];
    return std::tie(ca.worker, ca.start_s, ca.index) <
           std::tie(cb.worker, cb.start_s, cb.index);
  });
  double max_end = 0.0;
  std::uint32_t prev_worker = 0;
  double prev_end = 0.0;
  bool have_prev = false;
  for (const std::size_t i : order) {
    const CellRecord& cell = telemetry.cells[i];
    const std::uint32_t pid = cell.worker + 1;
    const std::uint32_t tid = home_shard(cell.index, count, telemetry.workers);
    const double start_us = cell.start_s * 1e6;
    const double run_us = cell.run_s * 1e6;
    if (!have_prev || prev_worker != cell.worker) {
      prev_end = 0.0;
    }
    const double gap_us = start_us - prev_end;
    if (gap_us > 1.0) {
      buffer_.emit(Span{prev_end, gap_us, pid, tid, "wait", "pool.wait", ""});
    }
    std::ostringstream name;
    name << "cell " << cell.index;
    buffer_.emit(Span{start_us, run_us, pid, tid, name.str(), "sweep.cell",
                      cell_args(cell)});
    prev_worker = cell.worker;
    prev_end = start_us + run_us;
    have_prev = true;
    max_end = std::max(max_end, prev_end);
  }
  const double sweep_end_us = telemetry.elapsed_s * 1e6;
  if (sweep_end_us > max_end) {
    std::ostringstream args;
    args << "\"steals\":" << telemetry.steals
         << ",\"workers\":" << telemetry.workers;
    buffer_.emit(Span{max_end, sweep_end_us - max_end, kSpanSimPid,
                      kSpanCellTid, "assemble", "pool.assemble", args.str()});
  }
}

std::string SpanTracer::render() const {
  std::vector<Span> spans = buffer_.spans();
  // Content sort: a deterministic total order that does not depend on which
  // buffer (worker) emitted a span or in what order spans were appended.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.pid, a.tid, a.ts, a.dur, a.name, a.cat, a.args) <
           std::tie(b.pid, b.tid, b.ts, b.dur, b.name, b.cat, b.args);
  });

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  // Track-name metadata: one process_name per distinct pid, one thread_name
  // per distinct (pid, tid). Derived from the sorted span set, so the
  // metadata block is as deterministic as the spans.
  std::uint32_t last_pid = 0;
  std::uint32_t last_tid = 0;
  bool have_pid = false;
  bool have_tid = false;
  for (const Span& s : spans) {
    if (!have_pid || s.pid != last_pid) {
      if (!first) os << ",\n";
      first = false;
      render_meta(os, "process_name", s.pid, nullptr,
                  track_process_name(s.pid));
      last_pid = s.pid;
      have_pid = true;
      have_tid = false;
    }
    if (!have_tid || s.tid != last_tid) {
      if (!first) os << ",\n";
      first = false;
      render_meta(os, "thread_name", s.pid, &s.tid,
                  track_thread_name(s.pid, s.tid));
      last_tid = s.tid;
      have_tid = true;
    }
  }
  for (const Span& s : spans) {
    if (!first) os << ",\n";
    first = false;
    render_event(os, s);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void SpanTracer::write(const std::string& path) const {
  write_file_atomic(path, render());
}

KernelSpanMonitor::KernelSpanMonitor(SpanBuffer& buffer,
                                     double us_per_time_unit,
                                     std::uint64_t max_batch)
    : buffer_(buffer),
      scale_(us_per_time_unit),
      max_batch_(max_batch > 0 ? max_batch : 1) {}

void KernelSpanMonitor::on_event_begin(SimTime now, const char* label,
                                       std::size_t /*pending*/) noexcept {
  ++events_;
  const bool same =
      open_ && (label == label_ ||
                (label != nullptr && label_ != nullptr &&
                 std::strcmp(label, label_) == 0));
  if (same && count_ < max_batch_) {
    ++count_;
    last_ = now;
    return;
  }
  flush();
  open_ = true;
  label_ = label;
  first_ = now;
  last_ = now;
  count_ = 1;
}

void KernelSpanMonitor::on_event_end(SimTime now, const char* /*label*/) noexcept {
  if (open_) last_ = now;
}

void KernelSpanMonitor::finish() { flush(); }

void KernelSpanMonitor::flush() {
  if (!open_) return;
  std::string args = "\"count\":";
  TextAppender(args) << count_;
  buffer_.emit(Span{first_ * scale_, (last_ - first_) * scale_, kSpanSimPid,
                    kSpanKernelTid,
                    label_ != nullptr ? std::string(label_) : "(event)",
                    "kernel", std::move(args)});
  open_ = false;
  label_ = nullptr;
  count_ = 0;
}

void SimMonitorMux::add(SimMonitor* monitor) {
  if (monitor != nullptr) monitors_.push_back(monitor);
}

void SimMonitorMux::on_event_begin(SimTime now, const char* label,
                                   std::size_t pending) noexcept {
  for (SimMonitor* m : monitors_) m->on_event_begin(now, label, pending);
}

void SimMonitorMux::on_event_end(SimTime now, const char* label) noexcept {
  for (SimMonitor* m : monitors_) m->on_event_end(now, label);
}

}  // namespace pds
