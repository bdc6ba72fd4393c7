// Scheduler micro-benchmarks (google-benchmark).
//
// The paper claims both WTP and packetized BPR are O(N) per departure and
// "implementable even in very high-speed links" for small N (Section 4).
// These benchmarks measure the enqueue+dequeue cost per packet as the class
// count N grows, for every scheduler in the library, on a pre-generated
// backlog-heavy workload.
#include <benchmark/benchmark.h>

#include <vector>

#include "alloc_counter.hpp"
#include "rng/rng.hpp"
#include "sched/factory.hpp"

namespace {

pds::SchedulerConfig make_config(std::uint32_t num_classes) {
  pds::SchedulerConfig c;
  double s = 1.0;
  for (std::uint32_t i = 0; i < num_classes; ++i) {
    c.sdp.push_back(s);
    s *= 2.0;
  }
  c.link_capacity = 39.375;
  return c;
}

std::vector<pds::Packet> make_workload(std::uint32_t num_classes,
                                       std::size_t count) {
  pds::Rng rng(7);
  std::vector<pds::Packet> packets;
  packets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += 0.5;
    pds::Packet p;
    p.id = i;
    p.cls = static_cast<pds::ClassId>(rng.uniform_index(num_classes));
    p.size_bytes = 40 + static_cast<std::uint32_t>(rng.uniform_index(1460));
    p.arrival = t;
    packets.push_back(p);
  }
  return packets;
}

// One pass: build a deep backlog, alternate enqueue/dequeue (steady state),
// then drain — exercising selection against full queues. Arrivals are
// shifted by `base` so consecutive passes run on one forward-moving clock
// and every pass makes the same decisions.
void pass(pds::Scheduler& sched, const std::vector<pds::Packet>& workload,
          double base) {
  const auto arrive = [&](std::size_t i) {
    pds::Packet p = workload[i];
    p.arrival += base;
    sched.enqueue(p, p.arrival);
    return p.arrival;
  };
  std::size_t i = 0;
  for (; i < workload.size() / 2; ++i) arrive(i);
  double now = base + workload[i - 1].arrival;
  for (; i < workload.size(); ++i) {
    now = arrive(i) + 0.25;
    benchmark::DoNotOptimize(sched.dequeue(now));
  }
  while (auto p = sched.dequeue(now)) benchmark::DoNotOptimize(p);
}

void run_pass(benchmark::State& state, pds::SchedulerKind kind) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto workload = make_workload(n, 4096);
  // The scheduler is built once, outside the timed loop: every pass drains
  // it empty, and untimed passes grow its queues to working size, so
  // allocs_per_pkt is the steady-state cost of a decision. One pass is not
  // always enough: Virtual Clock's per-class clocks carry over, so each pass
  // decides differently and a class backlog can reach a new peak a few
  // passes in. Warm-up repeats until a pass allocates nothing (at most
  // kMaxWarmup passes); warmup_passes reports how many it took.
  constexpr int kMaxWarmup = 64;
  auto sched = pds::make_scheduler(kind, make_config(n));
  const double span = workload.back().arrival + 1.0;
  double base = 0.0;
  int warmup = 0;
  for (bool grew = true; grew && warmup < kMaxWarmup; ++warmup) {
    const std::uint64_t before = pds::bench::heap_allocations();
    pass(*sched, workload, base);
    grew = pds::bench::heap_allocations() != before;
    base += span;
  }
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const std::uint64_t before = pds::bench::heap_allocations();
    pass(*sched, workload, base);
    allocs += pds::bench::heap_allocations() - before;
    base += span;
    packets += workload.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
  state.counters["allocs_per_pkt"] =
      packets ? static_cast<double>(allocs) / static_cast<double>(packets)
              : 0.0;
  state.counters["warmup_passes"] = warmup;
}

void BM_Fcfs(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kFcfs); }
void BM_StrictPriority(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kStrictPriority);
}
void BM_Wtp(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kWtp); }
void BM_Bpr(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kBpr); }
void BM_Additive(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kAdditiveWtp);
}
void BM_Pad(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kPad); }
void BM_Hpd(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kHpd); }
void BM_Drr(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kDrr); }
void BM_Scfq(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kScfq); }
void BM_VirtualClock(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kVirtualClock);
}

}  // namespace

BENCHMARK(BM_Fcfs)->Arg(4)->Arg(16);
BENCHMARK(BM_StrictPriority)->Arg(4)->Arg(16);
BENCHMARK(BM_Wtp)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Bpr)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Additive)->Arg(4)->Arg(16);
BENCHMARK(BM_Pad)->Arg(4)->Arg(16);
BENCHMARK(BM_Hpd)->Arg(4)->Arg(16);
BENCHMARK(BM_Drr)->Arg(4)->Arg(16);
BENCHMARK(BM_Scfq)->Arg(4)->Arg(16);
BENCHMARK(BM_VirtualClock)->Arg(4)->Arg(16);
