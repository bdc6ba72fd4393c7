// The two pending-event-set implementations must induce the *identical*
// execution order: ascending time, FIFO sequence within equal times.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

EventHandle push(EventQueue& q, SimTime t, std::uint64_t seq) {
  return q.push(t, seq, [] {});
}

std::string kind_name(EventQueueKind kind) {
  return kind == EventQueueKind::kBinaryHeap ? "heap" : "radix";
}

class EventQueueKinds : public testing::TestWithParam<EventQueueKind> {};

TEST_P(EventQueueKinds, PopsInTimeOrder) {
  EventQueue q(GetParam());
  push(q, 5.0, 0);
  push(q, 1.0, 1);
  push(q, 3.0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueKinds, FifoWithinEqualTimes) {
  EventQueue q(GetParam());
  for (std::uint64_t s = 0; s < 20; ++s) push(q, 7.0, s);
  for (std::uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(q.pop().seq, s);
  }
}

TEST_P(EventQueueKinds, InterleavedPushPop) {
  EventQueue q(GetParam());
  push(q, 10.0, 0);
  push(q, 20.0, 1);
  EXPECT_DOUBLE_EQ(q.pop().time, 10.0);
  push(q, 15.0, 2);  // between the popped head and the remainder
  push(q, 12.0, 3);
  EXPECT_DOUBLE_EQ(q.pop().time, 12.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 15.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 20.0);
}

TEST_P(EventQueueKinds, SparseJumpsFarAhead) {
  // Keys far apart differ in high exponent bits: they sit in high buckets
  // and must cascade down correctly when the front reaches them.
  EventQueue q(GetParam());
  push(q, 1.0, 0);
  push(q, 1e9, 1);
  push(q, 2e9, 2);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1e9);
  push(q, 1.5e9, 3);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.5e9);
  EXPECT_DOUBLE_EQ(q.pop().time, 2e9);
}

TEST_P(EventQueueKinds, InfiniteTimesSortLast) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EventQueue q(GetParam());
  push(q, kInf, 0);
  push(q, 1e308, 1);
  push(q, 5.0, 2);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 1u);
  push(q, kInf, 3);
  EXPECT_DOUBLE_EQ(q.next_time(), kInf);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueKinds, EqualTimesStayFifoAcrossRedistribution) {
  // Ties at t = 3 enter before and after pops that move the front through
  // the earlier times, so they are relinked between buckets several times;
  // they must still leave in seq order.
  EventQueue q(GetParam());
  std::uint64_t seq = 0;
  push(q, 1.0, seq++);
  for (int i = 0; i < 10; ++i) push(q, 3.0, seq++);
  push(q, 2.0, seq++);
  push(q, 2.5, seq++);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  for (int i = 0; i < 5; ++i) push(q, 3.0, seq++);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.5);
  std::uint64_t last = 0;
  for (int i = 0; i < 8; ++i) {
    const auto item = q.pop();
    EXPECT_DOUBLE_EQ(item.time, 3.0);
    if (i > 0) {
      EXPECT_GT(item.seq, last);
    }
    last = item.seq;
    push(q, 3.0, seq++);  // exactly at the popped time
  }
  while (!q.empty()) {
    const auto item = q.pop();
    EXPECT_DOUBLE_EQ(item.time, 3.0);
    EXPECT_GT(item.seq, last);
    last = item.seq;
  }
  EXPECT_EQ(last, seq - 1);
}

TEST_P(EventQueueKinds, PushAtTheLastPoppedTimeRunsNext) {
  EventQueue q(GetParam());
  push(q, 5.0, 0);
  push(q, 6.0, 1);
  EXPECT_EQ(q.pop().seq, 0u);
  push(q, 5.0, 2);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 1u);
}

TEST_P(EventQueueKinds, NegativeZeroIsZero) {
  // -0.0 passes the kernel's t >= now check at time zero; its sign bit
  // must not sort it after positive times.
  EventQueue q(GetParam());
  push(q, 1e-300, 0);
  push(q, -0.0, 1);
  push(q, 0.0, 2);
  const auto first = q.pop();
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.time, 0.0);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 0u);
}

TEST_P(EventQueueKinds, CancelRemovesOnlyTheNamedEvent) {
  EventQueue q(GetParam());
  push(q, 1.0, 0);
  const EventHandle front = push(q, 0.5, 1);
  const EventHandle mid = push(q, 2.0, 2);
  push(q, 3.0, 3);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.5);
  EXPECT_TRUE(q.cancel(mid));
  EXPECT_FALSE(q.cancel(mid));
  EXPECT_TRUE(q.cancel(front));  // the cached front
  EXPECT_FALSE(q.cancel(EventHandle{}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().seq, 0u);
  const EventHandle reused = push(q, 2.0, 4);  // may take a freed slot
  EXPECT_FALSE(q.cancel(mid));
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_FALSE(q.cancel(reused));  // already popped
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Kinds, EventQueueKinds,
                         testing::Values(EventQueueKind::kBinaryHeap,
                                         EventQueueKind::kRadix),
                         [](const auto& param_info) {
                           return kind_name(param_info.param);
                         });

TEST(EventQueueDifferential, RandomWorkloadsAgreeExactly) {
  // Mixed pushes, pops and cancels with bursty times: both queues must emit
  // the same (time, seq) stream.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    EventQueue heap(EventQueueKind::kBinaryHeap);
    EventQueue radix(EventQueueKind::kRadix);
    std::vector<std::pair<EventHandle, EventHandle>> handles;
    Rng rng(seed);
    double now = 0.0;
    std::uint64_t seq = 0;
    for (int round = 0; round < 5000; ++round) {
      const auto op = rng.uniform_index(5);
      if (op < 3 || heap.empty()) {
        // Push: future time, occasionally far ahead, occasionally tying.
        double t = now;
        const auto style = rng.uniform_index(4);
        if (style == 0) {
          t = now;  // tie with the current time
        } else if (style == 3) {
          t = now + 1000.0 + rng.uniform01() * 1e6;
        } else {
          t = now + rng.uniform01() * 50.0;
        }
        handles.emplace_back(push(heap, t, seq), push(radix, t, seq));
        ++seq;
      } else if (op == 3) {
        // Cancel a random earlier event, pending or not.
        const auto& [h, r] = handles[rng.uniform_index(handles.size())];
        EXPECT_EQ(heap.cancel(h), radix.cancel(r));
        EXPECT_EQ(heap.size(), radix.size());
      } else {
        EXPECT_DOUBLE_EQ(heap.next_time(), radix.next_time());
        const auto a = heap.pop();
        const auto b = radix.pop();
        EXPECT_DOUBLE_EQ(a.time, b.time);
        EXPECT_EQ(a.seq, b.seq);
        now = a.time;
      }
    }
    while (!heap.empty()) {
      ASSERT_FALSE(radix.empty());
      const auto a = heap.pop();
      const auto b = radix.pop();
      EXPECT_DOUBLE_EQ(a.time, b.time);
      EXPECT_EQ(a.seq, b.seq);
    }
    EXPECT_TRUE(radix.empty());
  }
}

TEST(EventQueueRadix, SlabReusesFreedSlots) {
  // Storage follows the peak population, not the number of events ever
  // pushed: a hold-model churn at population 100 never grows the slab.
  RadixEventQueue q;
  Rng rng(5);
  std::uint64_t seq = 0;
  for (; seq < 100; ++seq) q.push(rng.uniform01() * 10.0, seq, [] {});
  EXPECT_EQ(q.slab_slots(), 100u);
  for (int i = 0; i < 10000; ++i) {
    auto item = q.pop();
    q.push(item.time + rng.uniform01() * 10.0, seq++, std::move(item.action));
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.slab_slots(), 100u);
}

TEST(EventQueueRadix, RejectsNegativeTimes) {
  RadixEventQueue q;
  EXPECT_THROW(q.push(-1.0, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 0, [] {}),
               std::invalid_argument);
}

TEST(EventQueueRadix, RejectsPushesBeforeTheLastPop) {
  // The monotone contract: nothing may enter behind the popped front.
  RadixEventQueue q;
  q.push(5.0, 3, [] {});
  q.pop();
  EXPECT_THROW(q.push(4.0, 4, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(5.0, 2, [] {}), std::invalid_argument);
  q.push(5.0, 4, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimulatorWithRadixQueue, MatchesHeapExecution) {
  // The same scripted workload on both kernels produces the same trace.
  const auto run = [](EventQueueKind kind) {
    Simulator sim(kind);
    std::vector<std::pair<double, int>> fired;
    Rng rng(77);
    for (int i = 0; i < 500; ++i) {
      const double t = rng.uniform01() * 1000.0;
      sim.schedule_at(t, [&fired, t, i] { fired.emplace_back(t, i); });
    }
    sim.run();
    return fired;
  };
  const auto heap = run(EventQueueKind::kBinaryHeap);
  const auto radix = run(EventQueueKind::kRadix);
  ASSERT_EQ(heap.size(), radix.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], radix[i]);
  }
}

class SimulatorCancel : public testing::TestWithParam<EventQueueKind> {};

TEST_P(SimulatorCancel, CancelledEventsNeverRunNorCount) {
  Simulator sim(GetParam());
  std::vector<int> fired;
  EventHandle later;
  const EventHandle first = sim.schedule_at(1.0, [&] {
    fired.push_back(1);
    EXPECT_TRUE(sim.cancel(later));
  });
  const EventHandle doomed = sim.schedule_at(2.0, [&] { fired.push_back(2); });
  later = sim.schedule_at(3.0, [&] { fired.push_back(3); });
  sim.schedule_at(4.0, [&] { fired.push_back(4); });
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until(1.5);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(first));  // already ran
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 4}));
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST_P(SimulatorCancel, RunningEventCannotCancelItself) {
  Simulator sim(GetParam());
  EventHandle self;
  int runs = 0;
  self = sim.schedule_at(1.0, [&] {
    ++runs;
    EXPECT_FALSE(sim.cancel(self));
    sim.schedule_in(1.0, [&] { ++runs; });  // may reuse the running slot
    EXPECT_FALSE(sim.cancel(self));
  });
  sim.run();
  EXPECT_EQ(runs, 2);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SimulatorCancel,
                         testing::Values(EventQueueKind::kBinaryHeap,
                                         EventQueueKind::kRadix),
                         [](const auto& param_info) {
                           return kind_name(param_info.param);
                         });

}  // namespace
}  // namespace pds
