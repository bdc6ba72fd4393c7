// Differential test for the event-dispatch refactor: the kernel's execution
// order must be bit-identical under both pending-event-set implementations.
// Runs Study A twice with the same seed — binary heap vs radix queue —
// and asserts the PacketTracer lifecycle files are byte-identical, plus the
// aggregate results agree exactly.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/study_a.hpp"

namespace pds {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StudyAConfig base_config() {
  StudyAConfig c;
  c.sim_time = 2.0e4;
  c.seed = 42;
  c.trace_sample = 0.05;
  return c;
}

TEST(DispatchEquivalence, HeapAndRadixProduceByteIdenticalTraces) {
  TempFile heap_file("pds_equiv_heap.csv");
  TempFile radix_file("pds_equiv_radix.csv");

  StudyAConfig heap_cfg = base_config();
  heap_cfg.event_queue = EventQueueKind::kBinaryHeap;
  heap_cfg.trace_out = heap_file.path;
  const StudyAResult heap = run_study_a(heap_cfg);

  StudyAConfig radix_cfg = base_config();
  radix_cfg.event_queue = EventQueueKind::kRadix;
  radix_cfg.trace_out = radix_file.path;
  const StudyAResult radix = run_study_a(radix_cfg);

  // The traced lifecycles cover arrival/enqueue/dequeue/depart with full
  // timestamps, so byte equality pins the whole execution order.
  ASSERT_GT(heap.trace_records, 0u);
  EXPECT_EQ(heap.trace_records, radix.trace_records);
  const std::string heap_bytes = slurp(heap_file.path);
  const std::string radix_bytes = slurp(radix_file.path);
  ASSERT_FALSE(heap_bytes.empty());
  EXPECT_TRUE(heap_bytes == radix_bytes)
      << "PacketTracer output diverged between event queue kinds";

  // Aggregates must agree exactly too (same arithmetic, same order).
  EXPECT_EQ(heap.total_departures, radix.total_departures);
  ASSERT_EQ(heap.mean_delays.size(), radix.mean_delays.size());
  for (std::size_t i = 0; i < heap.mean_delays.size(); ++i) {
    EXPECT_EQ(heap.mean_delays[i], radix.mean_delays[i]) << "class " << i;
    EXPECT_EQ(heap.departures[i], radix.departures[i]) << "class " << i;
  }
}

TEST(DispatchEquivalence, HoldsForPoissonArrivalsToo) {
  TempFile heap_file("pds_equiv_heap_poisson.csv");
  TempFile radix_file("pds_equiv_radix_poisson.csv");

  StudyAConfig heap_cfg = base_config();
  heap_cfg.arrivals = ArrivalModel::kPoisson;
  heap_cfg.seed = 7;
  heap_cfg.event_queue = EventQueueKind::kBinaryHeap;
  heap_cfg.trace_out = heap_file.path;
  const StudyAResult heap = run_study_a(heap_cfg);

  StudyAConfig radix_cfg = heap_cfg;
  radix_cfg.event_queue = EventQueueKind::kRadix;
  radix_cfg.trace_out = radix_file.path;
  const StudyAResult radix = run_study_a(radix_cfg);

  ASSERT_GT(heap.trace_records, 0u);
  EXPECT_TRUE(slurp(heap_file.path) == slurp(radix_file.path))
      << "PacketTracer output diverged between event queue kinds";
  EXPECT_EQ(heap.total_departures, radix.total_departures);
}

// Golden-trace regression: the two-queue differential above would pass if
// both implementations drifted *together* (say, a shared kernel change
// that reorders equal-time events). Pinning the FNV-1a hash of the Study A
// trace catches that: any change to execution order, trace sampling, or
// CSV formatting shows up as a hash mismatch and must be an intentional,
// reviewed break of the determinism contract.
TEST(DispatchEquivalence, StudyATraceMatchesGoldenHash) {
  constexpr std::uint64_t kGoldenFnv1a = 0xe924853a494d050eULL;
  constexpr std::uint64_t kGoldenRecords = 292;

  for (const auto kind :
       {EventQueueKind::kBinaryHeap, EventQueueKind::kRadix}) {
    TempFile trace_file("pds_golden_trace.csv");
    StudyAConfig cfg = base_config();
    cfg.event_queue = kind;
    cfg.trace_out = trace_file.path;
    const StudyAResult result = run_study_a(cfg);

    const std::string bytes = slurp(trace_file.path);
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
    for (const unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;  // FNV-1a prime
    }
    EXPECT_EQ(result.trace_records, kGoldenRecords)
        << "queue kind " << static_cast<int>(kind);
    EXPECT_EQ(hash, kGoldenFnv1a)
        << "queue kind " << static_cast<int>(kind)
        << ": Study A trace diverged from the golden execution order";
  }
}

}  // namespace
}  // namespace pds
