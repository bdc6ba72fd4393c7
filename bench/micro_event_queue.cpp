// Event-queue and dispatch microbenchmarks: binary heap vs monotone radix
// queue under the hold-model workload (the standard benchmark for simulator
// event sets: alternate pop and push-at-future-time on a steady
// population), an interleaved in-process radix/heap ratio at 16k, plus an
// end-to-end packet pipeline (source -> scheduler -> link) that measures the
// allocation cost of the kernel's event dispatch per simulated packet.
//
// Every benchmark reports `allocs_per_*` counters backed by the counting
// operator-new in alloc_counter.cpp — the regression guard for the hot-path
// allocation budget (see docs/architecture.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "micro_common.hpp"
#include "packet/arena.hpp"
#include "rng/rng.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "traffic/source.hpp"

namespace {

// Mimics the capture footprint of a link-completion event (two pointers and
// two doubles, 32 bytes): small enough for a 48-byte small-buffer event,
// too large for std::function's 16-byte inline storage.
struct TxPayload {
  void* link;
  void* packet;
  double wait;
  double tx;
};

// Fills `q` to `population` events at random times in [0, 100).
void fill(pds::EventQueue& q, std::size_t population, pds::Rng& rng,
          std::uint64_t& seq) {
  const TxPayload payload{nullptr, nullptr, 0.0, 0.0};
  for (std::size_t i = 0; i < population; ++i) {
    q.push(rng.uniform01() * 100.0, seq++,
           [payload] { benchmark::DoNotOptimize(payload); });
  }
}

// Hold model: each pop schedules its own event again a random offset ahead.
void hold(pds::EventQueue& q, int steps, pds::Rng& rng, std::uint64_t& seq) {
  for (int step = 0; step < steps; ++step) {
    auto item = q.pop();
    q.push(item.time + rng.uniform01() * 100.0, seq++, std::move(item.action));
  }
}

void hold_model(benchmark::State& state, pds::EventQueueKind kind) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pds::EventQueue q(kind);
    pds::Rng rng(99);
    std::uint64_t seq = 0;
    fill(q, population, rng, seq);
    state.ResumeTiming();
    const std::uint64_t before = pds::bench::heap_allocations();
    hold(q, 10000, rng, seq);
    allocs += pds::bench::heap_allocations() - before;
    ops += 10000;
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  state.counters["allocs_per_op"] =
      ops ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
}

void BM_Heap(benchmark::State& s) {
  hold_model(s, pds::EventQueueKind::kBinaryHeap);
}
void BM_Radix(benchmark::State& s) {
  hold_model(s, pds::EventQueueKind::kRadix);
}

// Radix vs heap measured in one process: every iteration times one block
// of hold steps on each queue, back to back, over identical event streams,
// so host-wide slowdowns hit both sides of a pair alike; which queue runs
// first alternates from pair to pair, so neither side always runs on the
// other's cache footprint. Reports the median per-pair speed ratio and
// errors unless it is at least kMinRatio with no allocation on the radix
// side after warm-up.
void BM_RadixOverHeap(benchmark::State& state) {
  constexpr int kBlock = 4096;
  constexpr double kMinRatio = 1.2;
  const auto population = static_cast<std::size_t>(state.range(0));
  pds::EventQueue heap(pds::EventQueueKind::kBinaryHeap);
  pds::EventQueue radix(pds::EventQueueKind::kRadix);
  pds::Rng heap_rng(99);
  pds::Rng radix_rng(99);
  std::uint64_t heap_seq = 0;
  std::uint64_t radix_seq = 0;
  fill(heap, population, heap_rng, heap_seq);
  fill(radix, population, radix_rng, radix_seq);
  hold(heap, kBlock, heap_rng, heap_seq);  // warm-up
  hold(radix, kBlock, radix_rng, radix_seq);
  using Clock = std::chrono::steady_clock;
  std::vector<double> ratios;
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  const auto time_heap = [&] {
    const auto t0 = Clock::now();
    hold(heap, kBlock, heap_rng, heap_seq);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto time_radix = [&] {
    const std::uint64_t before = pds::bench::heap_allocations();
    const auto t0 = Clock::now();
    hold(radix, kBlock, radix_rng, radix_seq);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    allocs += pds::bench::heap_allocations() - before;
    return s;
  };
  for (auto _ : state) {
    double heap_s = 0.0;
    double radix_s = 0.0;
    if (ratios.size() % 2 == 0) {
      heap_s = time_heap();
      radix_s = time_radix();
    } else {
      radix_s = time_radix();
      heap_s = time_heap();
    }
    ops += kBlock;
    ratios.push_back(heap_s / radix_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  state.SetItemsProcessed(state.iterations() * 2 * kBlock);
  state.counters["radix_over_heap"] = median;
  state.counters["allocs_per_op"] =
      ops ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
  if (allocs != 0) {
    state.SkipWithError("radix queue allocated after warm-up");
  } else if (median < kMinRatio) {
    const std::string err = "radix/heap median ratio " +
                            std::to_string(median) + " is below " +
                            std::to_string(kMinRatio);
    state.SkipWithError(err.c_str());
  }
}

// The kernel->link->source hot path end to end: four renewal sources feed a
// WTP link at ~90% utilization, with the class rings arena-backed as in the
// chain and graph scenarios. Items processed are executed kernel events;
// `allocs_per_pkt` is the steady-state heap-allocation cost of one simulated
// packet — measured after a warmup that lets the event queue and the class
// rings reach their working size, it must be exactly 0.0 (see the guard).
void packet_pipeline(benchmark::State& state, pds::EventQueueKind kind) {
  constexpr double kCapacity = 1000.0;    // bytes per time unit
  constexpr std::uint32_t kBytes = 500;   // fixed packet size
  constexpr double kMeanGap = 500.0 / 225.0;  // per-class load 0.225
  constexpr pds::SimTime kWarmup = 2500.0;
  constexpr pds::SimTime kRunTime = 7500.0;

  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pds::Simulator sim(kind);
    // Declared before the scheduler so the rings release into a live arena.
    pds::PacketArena arena;
    pds::SchedulerConfig cfg;
    cfg.sdp = {1.0, 2.0, 4.0, 8.0};
    cfg.link_capacity = kCapacity;
    cfg.arena = &arena;
    auto sched = pds::make_scheduler(pds::SchedulerKind::kWtp, cfg);
    std::uint64_t departed = 0;
    pds::Link link(sim, *sched, kCapacity,
                   [&departed](pds::Packet&&, pds::SimTime, pds::SimTime) {
                     ++departed;
                   });
    pds::PacketIdAllocator ids;
    pds::Rng master(1234);
    std::vector<std::unique_ptr<pds::RenewalSource>> sources;
    for (pds::ClassId c = 0; c < 4; ++c) {
      sources.push_back(std::make_unique<pds::RenewalSource>(
          sim, ids, c, pds::exponential_gaps(kMeanGap),
          pds::fixed_size(kBytes), master.split(),
          [&link](pds::Packet p) { link.arrive(std::move(p)); }));
      sources.back()->start(pds::kTimeZero);
    }
    state.ResumeTiming();

    // Warmup grows the event queue and the class rings to steady state;
    // only the post-warmup stretch is charged to the allocation budget.
    sim.run_until(kWarmup);
    const std::uint64_t before = pds::bench::heap_allocations();
    const std::uint64_t departed_before = departed;
    sim.run_until(kRunTime);
    allocs += pds::bench::heap_allocations() - before;
    packets += departed - departed_before;
    events += sim.executed_events();

    state.PauseTiming();
    for (auto& src : sources) src->stop();
    state.ResumeTiming();
    benchmark::DoNotOptimize(departed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_pkt"] =
      packets ? static_cast<double>(allocs) / static_cast<double>(packets)
              : 0.0;
  state.counters["pkts"] = static_cast<double>(packets);
  const std::string err = pds::bench::check_zero_steady_allocs(allocs, packets);
  if (!err.empty()) state.SkipWithError(err.c_str());
}

void BM_PacketPipelineHeap(benchmark::State& s) {
  packet_pipeline(s, pds::EventQueueKind::kBinaryHeap);
}
void BM_PacketPipelineRadix(benchmark::State& s) {
  packet_pipeline(s, pds::EventQueueKind::kRadix);
}

}  // namespace

BENCHMARK(BM_Heap)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_Radix)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_RadixOverHeap)->Arg(16384);
BENCHMARK(BM_PacketPipelineHeap);
BENCHMARK(BM_PacketPipelineRadix);
