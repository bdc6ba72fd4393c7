// Sampled packet-lifecycle tracer.
//
// A PacketTracer is a PacketProbe that records one TraceRecord per lifecycle
// transition (arrive / enqueue / dequeue / depart / drop) of every *sampled*
// packet. Sampling is per packet, not per event: the decision is a pure hash
// of (packet id, seed) against the sampling rate, so either a packet's whole
// lifecycle is in the trace or none of it is, the sampled set is identical
// across runs with the same seed (determinism the tests rely on), and no RNG
// stream state is perturbed by turning tracing on. The same decision is the
// probe's admits() filter, so the data path skips an unsampled packet before
// building any event argument for it.
//
// Records accumulate in memory (32 B each) and are dumped to CSV with
// save(); load() reads the same format back for trace_inspect and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace pds {

enum class TraceEventKind : std::uint8_t {
  kArrive,
  kEnqueue,
  kDequeue,  // start of transmission
  kDepart,   // end of transmission
  kDrop,
};

const char* to_string(TraceEventKind kind) noexcept;
TraceEventKind trace_event_kind_from_string(const std::string& s);

struct TraceRecord {
  SimTime time = 0.0;
  std::uint64_t packet_id = 0;
  TraceEventKind kind = TraceEventKind::kArrive;
  ClassId cls = 0;
  std::uint32_t hop = 0;
  std::uint32_t size_bytes = 0;
  // Queueing delay at this hop; meaningful for kDequeue/kDepart, 0 otherwise.
  double wait = 0.0;
  // Packet's class backlog at the emitting component, post-transition.
  std::uint64_t backlog_packets = 0;
  std::uint64_t backlog_bytes = 0;
};

class PacketTracer final : public PacketProbe {
 public:
  // `sample_rate` in [0, 1]: expected fraction of packets traced (1 traces
  // everything, 0 nothing). `seed` picks the sampled subset.
  PacketTracer(double sample_rate, std::uint64_t seed);

  // Deterministic per-packet sampling decision (public for tests and for
  // callers that want to co-sample auxiliary state).
  bool sampled(std::uint64_t packet_id) const noexcept;

  void on_arrive(const Packet& p, const ProbeContext& ctx,
                 SimTime now) override;
  void on_enqueue(const Packet& p, const ProbeContext& ctx,
                  SimTime now) override;
  void on_dequeue(const Packet& p, const ProbeContext& ctx, SimTime now,
                  SimTime wait) override;
  void on_depart(const Packet& p, const ProbeContext& ctx, SimTime now,
                 SimTime wait) override;
  void on_drop(const Packet& p, const ProbeContext& ctx, SimTime now) override;

  const std::vector<TraceRecord>& records() const noexcept { return records_; }
  double sample_rate() const noexcept { return sample_rate_; }

  // CSV round trip. save() throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;
  static std::vector<TraceRecord> load(const std::string& path);

 private:
  void record(const Packet& p, const ProbeContext& ctx, SimTime now,
              TraceEventKind kind, double wait);

  double sample_rate_;
  std::vector<TraceRecord> records_;
};

}  // namespace pds
