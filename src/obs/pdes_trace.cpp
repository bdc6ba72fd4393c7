#include "obs/pdes_trace.hpp"

#include <algorithm>
#include <tuple>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/number_text.hpp"

namespace pds {

PdesTrace::PdesTrace(std::uint32_t shards, double us_per_time_unit)
    : scale_(us_per_time_unit), buffers_(shards), prev_(shards, 0.0) {
  PDS_CHECK(shards >= 1, "PdesTrace needs at least one shard");
  PDS_CHECK(us_per_time_unit > 0.0, "time scale must be positive");
}

void PdesTrace::record_round(std::uint64_t round,
                             const std::vector<SimTime>& bounds,
                             const std::vector<std::uint64_t>& processed,
                             const std::vector<std::uint32_t>& backlogged) {
  PDS_REQUIRE(bounds.size() == buffers_.size() &&
              processed.size() == buffers_.size() &&
              backlogged.size() == buffers_.size());
  ++rounds_;
  for (std::size_t s = 0; s < buffers_.size(); ++s) {
    const SimTime from = prev_[s];
    const SimTime to = std::max(bounds[s], from);
    prev_[s] = to;
    if (processed[s] == 0) continue;
    std::string args;
    TextAppender(args) << "\"round\":" << round << ",\"work\":"
                       << processed[s] << ",\"backlogged\":" << backlogged[s];
    buffers_[s].emit(Span{from * scale_, (to - from) * scale_, kSpanPdesPid,
                          static_cast<std::uint32_t>(s), "pdes.window",
                          "pdes", std::move(args)});
  }
}

void PdesTrace::record_stats(const PdesStats& stats,
                             MetricsRegistry& registry) const {
  registry.counter("pdes.rounds").inc(stats.rounds);
  registry.counter("pdes.null_rounds").inc(stats.null_rounds);
  registry.counter("pdes.messages").inc(stats.messages);
  registry.counter("pdes.final_sweeps").inc(stats.final_sweeps);
  registry.gauge("pdes.max_channel_depth")
      .set(static_cast<double>(stats.max_channel_depth));
  registry.gauge("pdes.blocked_seconds").set(stats.barrier_seconds);
}

const SpanBuffer& PdesTrace::shard_buffer(std::uint32_t shard) const {
  PDS_CHECK(shard < buffers_.size(), "shard index out of range");
  return buffers_[shard];
}

std::vector<Span> PdesTrace::merged() const {
  std::vector<Span> spans;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer.spans()) spans.push_back(s);
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.pid, a.tid, a.ts, a.dur, a.name, a.cat, a.args) <
           std::tie(b.pid, b.tid, b.ts, b.dur, b.name, b.cat, b.args);
  });
  return spans;
}

}  // namespace pds
