#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "dropper/lossy_link.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "util/hash.hpp"

namespace pds {
namespace {

// Temp-file path helper; the file is removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

Packet make_packet(std::uint64_t id, ClassId cls,
                   std::uint32_t bytes = 1000) {
  Packet p;
  p.id = id;
  p.cls = cls;
  p.size_bytes = bytes;
  return p;
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterTracksTotalAndWindowDelta) {
  MetricsRegistry reg;
  Counter& c = reg.counter("arrivals");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(c.window_delta(), 5u);
  reg.reset_windows();
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(c.window_delta(), 0u);
  // Find-or-create returns the same object.
  reg.counter("arrivals").inc();
  EXPECT_EQ(c.total(), 6u);
}

TEST(MetricsRegistry, GaugeKeepsValueAcrossWindowResets) {
  MetricsRegistry reg;
  reg.gauge("backlog").set(7.5);
  reg.reset_windows();
  EXPECT_DOUBLE_EQ(reg.gauge("backlog").value(), 7.5);
}

TEST(MetricsRegistry, SummaryKeepsWindowAndTotalViews) {
  MetricsRegistry reg;
  Summary& s = reg.summary("delay");
  s.observe(1.0);
  s.observe(3.0);
  EXPECT_EQ(s.window().count(), 2u);
  EXPECT_DOUBLE_EQ(s.window().mean(), 2.0);
  reg.reset_windows();
  EXPECT_EQ(s.window().count(), 0u);
  s.observe(5.0);
  EXPECT_DOUBLE_EQ(s.window().mean(), 5.0);
  EXPECT_EQ(s.total().count(), 3u);
  EXPECT_DOUBLE_EQ(s.total().mean(), 3.0);
}

TEST(MetricsRegistry, NameIdentifiesExactlyOneKind) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.summary("x"), std::invalid_argument);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_EQ(reg.size(), 2u);
}

// ------------------------------------------------------------------ writer

TEST(MetricsSnapshotWriter, WritesOneRowPerMetricPerWindow) {
  TempFile file("obs_writer.csv");
  Simulator sim;
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  reg.gauge("level");
  reg.summary("delay").observe(2.0);
  int refreshes = 0;
  MetricsSnapshotWriter writer(sim, reg, file.path, 10.0,
                               [&](SimTime now) {
                                 ++refreshes;
                                 reg.gauge("level").set(now);
                               });
  // One count per unit time, offset half a unit so no increment ties with a
  // snapshot instant: every full window delta is exactly 10.
  for (int t = 0; t < 35; ++t) {
    sim.schedule_at(t + 0.5, [&c] { c.inc(); });
  }
  sim.run_until(35.0);
  writer.flush();  // partial window [30, 35]
  EXPECT_EQ(writer.snapshots_written(), 4u);
  EXPECT_EQ(refreshes, 4);

  const auto rows = load_metrics_csv(file.path);
  ASSERT_EQ(rows.size(), 4u * 3u);
  // Counter rows: cumulative total in `value`, window delta in `count`.
  std::vector<MetricsRow> counter_rows;
  for (const auto& r : rows) {
    if (r.type == "counter") counter_rows.push_back(r);
  }
  ASSERT_EQ(counter_rows.size(), 4u);
  EXPECT_DOUBLE_EQ(counter_rows[0].time, 10.0);
  EXPECT_DOUBLE_EQ(counter_rows[0].value, 10.0);
  EXPECT_DOUBLE_EQ(counter_rows[0].count, 10.0);
  EXPECT_DOUBLE_EQ(counter_rows[3].time, 35.0);
  EXPECT_DOUBLE_EQ(counter_rows[3].value, 35.0);
  EXPECT_DOUBLE_EQ(counter_rows[3].count, 5.0);
  // The gauge was refreshed just before each snapshot.
  for (const auto& r : rows) {
    if (r.type == "gauge") {
      EXPECT_DOUBLE_EQ(r.value, r.time);
    }
  }
  // The summary observation lands in the first window only.
  for (const auto& r : rows) {
    if (r.type == "summary") {
      EXPECT_DOUBLE_EQ(r.count, r.time <= 10.0 ? 1.0 : 0.0);
    }
  }
}

TEST(MetricsSnapshotWriter, FlushIsIdempotentAtSnapshotInstant) {
  TempFile file("obs_flush.csv");
  Simulator sim;
  MetricsRegistry reg;
  reg.counter("events");
  MetricsSnapshotWriter writer(sim, reg, file.path, 10.0);
  sim.schedule_at(20.0, [] {});
  sim.run_until(20.0);
  writer.flush();  // t=20 row was already written by the ticker
  writer.flush();
  EXPECT_EQ(writer.snapshots_written(), 2u);
}

TEST(MetricsSnapshotWriter, FormatFollowsExtension) {
  EXPECT_EQ(MetricsSnapshotWriter::format_for_path("m.jsonl"),
            MetricsFormat::kJsonl);
  EXPECT_EQ(MetricsSnapshotWriter::format_for_path("m.csv"),
            MetricsFormat::kCsv);
  EXPECT_EQ(MetricsSnapshotWriter::format_for_path("metrics"),
            MetricsFormat::kCsv);
}

TEST(MetricsSnapshotWriter, JsonlRowsAreWellFormedLines) {
  TempFile file("obs_writer.jsonl");
  Simulator sim;
  MetricsRegistry reg;
  reg.counter("events").inc(3);
  reg.summary("delay").observe(1.5);
  MetricsSnapshotWriter writer(sim, reg, file.path, 5.0);
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  writer.flush();  // commits the atomic file under its final name
  std::ifstream in(file.path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"time\":5"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
}

// ------------------------------------------------------------------ tracer

TEST(PacketTracer, SamplingIsDeterministicPerSeed) {
  PacketTracer a(0.3, 42);
  PacketTracer b(0.3, 42);
  PacketTracer c(0.3, 43);
  std::set<std::uint64_t> set_a, set_c;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    EXPECT_EQ(a.sampled(id), b.sampled(id));
    if (a.sampled(id)) set_a.insert(id);
    if (c.sampled(id)) set_c.insert(id);
  }
  // Roughly the requested fraction...
  EXPECT_NEAR(static_cast<double>(set_a.size()) / 2000.0, 0.3, 0.05);
  // ...and a different seed picks a different subset.
  EXPECT_NE(set_a, set_c);
}

TEST(PacketTracer, RateZeroAndOneAreExact) {
  PacketTracer none(0.0, 1);
  PacketTracer all(1.0, 1);
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_FALSE(none.sampled(id));
    EXPECT_TRUE(all.sampled(id));
  }
}

TEST(PacketTracer, RejectsRateOutsideUnitInterval) {
  EXPECT_THROW(PacketTracer(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(PacketTracer(1.1, 1), std::invalid_argument);
}

// The notification sites ask admits(), and sampled() is that filter. Pin
// the decision to its documented definition, mix64(id ^ mix64(seed)) <
// rate * 2^64, so the traced subset (and every trace CSV) stays the same.
TEST(PacketTracer, AdmissionFilterIsTheSamplingDecision) {
  constexpr std::uint64_t kSeed = 42;
  for (const double rate : {0.0, 0.01, 0.25, 1.0}) {
    const PacketTracer tracer(rate, kSeed);
    const auto threshold =
        static_cast<std::uint64_t>(rate * static_cast<double>(~0ULL));
    std::uint64_t admitted = 0;
    for (std::uint64_t id = 0; id < 1000000; ++id) {
      const bool expected =
          rate >= 1.0 || mix64(id ^ mix64(kSeed)) < threshold;
      if (tracer.admits(id) != expected) {
        FAIL() << "rate " << rate << " disagrees at id " << id;
      }
      admitted += expected ? 1 : 0;
    }
    EXPECT_EQ(tracer.sampled(12345), tracer.admits(12345));
    EXPECT_NEAR(static_cast<double>(admitted) / 1e6, rate, 0.002)
        << "rate " << rate;
  }
}

TEST(PacketProbe, DefaultFilterAdmitsEveryPacket) {
  const PacketProbe probe;
  for (std::uint64_t id = 0; id < 100000; ++id) {
    ASSERT_TRUE(probe.admits(id)) << id;
  }
  EXPECT_TRUE(probe.admits(~std::uint64_t{0}));
}

TEST(PacketTracer, WholeLifecycleIsSampledOrNot) {
  PacketTracer tracer(0.5, 7);
  const ProbeContext ctx{2, 5, 5000};
  for (std::uint64_t id = 0; id < 50; ++id) {
    const Packet p = make_packet(id, 1);
    tracer.on_arrive(p, ctx, 1.0);
    tracer.on_enqueue(p, ctx, 1.0);
    tracer.on_dequeue(p, ctx, 2.0, 1.0);
    tracer.on_depart(p, ctx, 3.0, 1.0);
  }
  std::set<std::uint64_t> traced;
  for (const auto& r : tracer.records()) traced.insert(r.packet_id);
  for (const std::uint64_t id : traced) {
    EXPECT_TRUE(tracer.sampled(id));
  }
  // Every sampled packet has all four lifecycle records.
  EXPECT_EQ(tracer.records().size(), traced.size() * 4);
}

TEST(PacketTracer, CsvRoundTripPreservesRecords) {
  TempFile file("obs_trace.csv");
  PacketTracer tracer(1.0, 1);
  const ProbeContext ctx{1, 3, 3000};
  const Packet p = make_packet(11, 2, 1500);
  tracer.on_arrive(p, ctx, 10.5);
  tracer.on_dequeue(p, ctx, 12.25, 1.75);
  tracer.on_drop(make_packet(12, 0), ProbeContext{0, 0, 0}, 13.0);
  tracer.save(file.path);

  const auto loaded = PacketTracer::load(file.path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[0].time, 10.5);
  EXPECT_EQ(loaded[0].packet_id, 11u);
  EXPECT_EQ(loaded[0].kind, TraceEventKind::kArrive);
  EXPECT_EQ(loaded[0].cls, 2);
  EXPECT_EQ(loaded[0].hop, 1u);
  EXPECT_EQ(loaded[0].size_bytes, 1500u);
  EXPECT_EQ(loaded[0].backlog_packets, 3u);
  EXPECT_EQ(loaded[0].backlog_bytes, 3000u);
  EXPECT_EQ(loaded[1].kind, TraceEventKind::kDequeue);
  EXPECT_DOUBLE_EQ(loaded[1].wait, 1.75);
  EXPECT_EQ(loaded[2].kind, TraceEventKind::kDrop);
}

TEST(TraceEventKind, StringRoundTrip) {
  for (const auto kind :
       {TraceEventKind::kArrive, TraceEventKind::kEnqueue,
        TraceEventKind::kDequeue, TraceEventKind::kDepart,
        TraceEventKind::kDrop}) {
    EXPECT_EQ(trace_event_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(trace_event_kind_from_string("bogus"), std::invalid_argument);
}

// ------------------------------------------------------------ probe wiring

// Counts lifecycle events without sampling, for exactness checks.
class CountingProbe final : public PacketProbe {
 public:
  void on_arrive(const Packet&, const ProbeContext&, SimTime) override {
    ++arrives;
  }
  void on_enqueue(const Packet&, const ProbeContext&, SimTime) override {
    ++enqueues;
  }
  void on_dequeue(const Packet&, const ProbeContext&, SimTime,
                  SimTime) override {
    ++dequeues;
  }
  void on_depart(const Packet& p, const ProbeContext& ctx, SimTime,
                 SimTime wait) override {
    ++departs;
    last_hop = ctx.hop;
    last_wait = wait;
    last_id = p.id;
  }
  void on_drop(const Packet&, const ProbeContext&, SimTime) override {
    ++drops;
  }

  std::uint64_t arrives = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t departs = 0;
  std::uint64_t drops = 0;
  std::uint32_t last_hop = 0;
  SimTime last_wait = -1.0;
  std::uint64_t last_id = 0;
};

// The wiring tests need the notification sites compiled in; under
// -DPDS_OBS=OFF the data path emits nothing by design.
#if PDS_OBS_ENABLED

TEST(ProbeWiring, LinkEmitsExactlyOneLifecyclePerTransmittedPacket) {
  Simulator sim;
  SchedulerConfig config;
  config.sdp = {1.0, 2.0};
  config.link_capacity = 100.0;
  const auto sched = make_scheduler(SchedulerKind::kWtp, config);
  std::uint64_t handler_departs = 0;
  Link link(sim, *sched, config.link_capacity,
            [&](Packet&&, SimTime, SimTime) { ++handler_departs; });
  CountingProbe probe;
  link.set_probe(&probe, /*hop=*/3);

  constexpr std::uint64_t kPackets = 40;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    sim.schedule_at(static_cast<SimTime>(i) * 2.0, [&link, i] {
      link.arrive(make_packet(i, static_cast<ClassId>(i % 2)));
    });
  }
  sim.run();

  EXPECT_EQ(link.packets_sent(), kPackets);
  EXPECT_EQ(handler_departs, kPackets);
  EXPECT_EQ(probe.arrives, kPackets);
  EXPECT_EQ(probe.enqueues, kPackets);
  EXPECT_EQ(probe.dequeues, kPackets);
  EXPECT_EQ(probe.departs, kPackets);
  EXPECT_EQ(probe.drops, 0u);
  EXPECT_EQ(probe.last_hop, 3u);
  EXPECT_GE(probe.last_wait, 0.0);

  // Detaching stops emission.
  link.set_probe(nullptr);
  sim.schedule_at(sim.now() + 1.0,
                  [&link] { link.arrive(make_packet(999, 0)); });
  sim.run();
  EXPECT_EQ(probe.arrives, kPackets);
}

TEST(ProbeWiring, LossyLinkEmitsExactlyOneDropPerLostPacket) {
  Simulator sim;
  SchedulerConfig config;
  config.sdp = {1.0, 2.0};
  config.link_capacity = 1.0;  // slow link so the buffer fills
  const auto sched = make_scheduler(SchedulerKind::kWtp, config);
  std::uint64_t handler_drops = 0;
  LossyLink lossy(sim, *sched, config.link_capacity, /*buffer_packets=*/4,
                  DropPolicy::kDropIncoming, nullptr,
                  [](Packet&&, SimTime, SimTime) {},
                  [&](const Packet&, SimTime) { ++handler_drops; });
  CountingProbe probe;
  lossy.set_probe(&probe);

  constexpr std::uint64_t kPackets = 30;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    // Burst of back-to-back arrivals: most of them overflow the buffer.
    sim.schedule_at(1.0, [&lossy, i] {
      lossy.arrive(make_packet(i, static_cast<ClassId>(i % 2)));
    });
  }
  sim.run();

  const std::uint64_t total_drops = lossy.drops(0) + lossy.drops(1);
  EXPECT_GT(total_drops, 0u);
  EXPECT_EQ(probe.drops, total_drops);
  EXPECT_EQ(probe.drops, handler_drops);
  // Lifecycle conservation: every offered packet is either admitted (and
  // then runs the full arrive/enqueue/dequeue/depart chain on the inner
  // link) or dropped at admission — never both, never neither.
  EXPECT_EQ(probe.arrives + probe.drops, kPackets);
  EXPECT_EQ(probe.enqueues, probe.arrives);
  EXPECT_EQ(probe.dequeues, probe.arrives);
  EXPECT_EQ(probe.departs, probe.arrives);
}

// Forwards every event to an inner probe through the default admit-all
// filter, as a decorator that times the tracer does.
class ForwardingProbe final : public PacketProbe {
 public:
  explicit ForwardingProbe(PacketProbe& inner) : inner_(inner) {}
  void on_arrive(const Packet& p, const ProbeContext& ctx,
                 SimTime now) override {
    inner_.on_arrive(p, ctx, now);
  }
  void on_enqueue(const Packet& p, const ProbeContext& ctx,
                  SimTime now) override {
    inner_.on_enqueue(p, ctx, now);
  }
  void on_dequeue(const Packet& p, const ProbeContext& ctx, SimTime now,
                  SimTime wait) override {
    inner_.on_dequeue(p, ctx, now, wait);
  }
  void on_depart(const Packet& p, const ProbeContext& ctx, SimTime now,
                 SimTime wait) override {
    inner_.on_depart(p, ctx, now, wait);
  }
  void on_drop(const Packet& p, const ProbeContext& ctx,
               SimTime now) override {
    inner_.on_drop(p, ctx, now);
  }

 private:
  PacketProbe& inner_;
};

// Overflowing drop-tail buffer in front of a WTP link: every notification
// site (arrive, enqueue, single or burst dequeue/depart, drop) fires.
void run_probed_lossy_link(PacketProbe& probe, std::uint32_t burst) {
  Simulator sim;
  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0};
  config.link_capacity = 10.0;
  const auto sched = make_scheduler(SchedulerKind::kWtp, config);
  LossyLink lossy(sim, *sched, config.link_capacity, /*buffer_packets=*/8,
                  DropPolicy::kDropIncoming, nullptr,
                  [](Packet&&, SimTime, SimTime) {},
                  [](const Packet&, SimTime) {});
  lossy.link_mut().set_burst(burst);
  lossy.set_probe(&probe, /*hop=*/1);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    sim.schedule_at(static_cast<SimTime>(i) * 0.08, [&lossy, i] {
      lossy.arrive(make_packet(i, static_cast<ClassId>(i % 3), 1000));
    });
  }
  sim.run();
  ASSERT_GT(lossy.drops(0) + lossy.drops(1) + lossy.drops(2), 0u);
}

TEST(ProbeWiring, FilteredSitesTraceWhatAnUnfilteredProbeTraces) {
  for (const std::uint32_t burst : {1u, 2u}) {
    for (const double rate : {0.0, 0.01, 0.25, 1.0}) {
      PacketTracer direct(rate, 5);
      run_probed_lossy_link(direct, burst);
      PacketTracer behind(rate, 5);
      ForwardingProbe forwarding(behind);
      run_probed_lossy_link(forwarding, burst);

      ASSERT_EQ(direct.records().size(), behind.records().size())
          << "burst " << burst << " rate " << rate;
      for (std::size_t i = 0; i < direct.records().size(); ++i) {
        const TraceRecord& a = direct.records()[i];
        const TraceRecord& b = behind.records()[i];
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.packet_id, b.packet_id);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.hop, b.hop);
        EXPECT_EQ(a.wait, b.wait);
        EXPECT_EQ(a.backlog_packets, b.backlog_packets);
        EXPECT_EQ(a.backlog_bytes, b.backlog_bytes);
      }
      if (rate > 0.0) {
        EXPECT_FALSE(direct.records().empty());
      }
    }
  }
}

#endif  // PDS_OBS_ENABLED

// ---------------------------------------------------------------- profiler

TEST(SimProfiler, AttributesEventsToLabels) {
  Simulator sim;
  SimProfiler profiler;
  sim.set_monitor(&profiler);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {}, "work");
  }
  sim.schedule_at(10.0, [] {});  // unlabeled
  sim.run();
  sim.set_monitor(nullptr);

  EXPECT_EQ(profiler.total_events(), 6u);
  const auto cats = profiler.categories();
  ASSERT_EQ(cats.size(), 2u);
  std::uint64_t work_events = 0;
  for (const auto& cat : cats) {
    if (cat.label == "work") work_events = cat.events;
  }
  EXPECT_EQ(work_events, 5u);
  EXPECT_EQ(profiler.queue_depth().count(), 6u);
}

TEST(SimProfiler, MergesEqualLabelsAtDifferentAddresses) {
  // Two translation units may each hold their own copy of a label literal;
  // the profiler keys on the address but must report one category.
  static const char kWorkA[] = "work";
  static const char kWorkB[] = "work";
  ASSERT_NE(static_cast<const void*>(kWorkA),
            static_cast<const void*>(kWorkB));
  Simulator sim;
  SimProfiler profiler;
  sim.set_monitor(&profiler);
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {},
                    i % 2 == 0 ? kWorkA : kWorkB);
  }
  sim.schedule_at(10.0, [] {}, "other");
  sim.run();
  sim.set_monitor(nullptr);

  const auto cats = profiler.categories();
  ASSERT_EQ(cats.size(), 2u);
  std::uint64_t work_events = 0;
  for (const auto& cat : cats) {
    if (cat.label == "work") work_events = cat.events;
  }
  EXPECT_EQ(work_events, 6u);
  EXPECT_EQ(profiler.total_events(), 7u);

  profiler.reset();
  EXPECT_TRUE(profiler.categories().empty());
  EXPECT_EQ(profiler.total_events(), 0u);
  EXPECT_EQ(profiler.queue_depth().count(), 0u);
}

// Reference monitor: counts every event per label text and the depth of
// every event, the way a profiler that times everything would.
class FullCountMonitor final : public SimMonitor {
 public:
  void on_event_begin(SimTime, const char* label,
                      std::size_t pending) noexcept override {
    ++events[label != nullptr ? label : "(unlabeled)"];
    depth.add(static_cast<double>(pending));
  }
  void on_event_end(SimTime, const char*) noexcept override {}

  std::map<std::string, std::uint64_t> events;
  RunningStats depth;
};

// Self-rearming chains under several labels with different periods, so
// labels interleave irregularly and the pending count varies.
void run_labeled_chains(SimMonitor& monitor) {
  static const char* const kLabels[] = {"alpha", "beta", "gamma", "delta"};
  Simulator sim;
  sim.set_monitor(&monitor);
  struct Chain {
    Simulator* sim;
    const char* label;
    double period;
    int remaining;
    void arm() {
      sim->schedule_in(
          period,
          [this] {
            if (--remaining > 0) arm();
          },
          label);
    }
  };
  std::vector<Chain> chains;
  for (int i = 0; i < 7; ++i) {
    chains.push_back(Chain{&sim, kLabels[i % 4], 1.0 + 0.37 * i, 40 + 90 * i});
  }
  for (Chain& c : chains) c.arm();
  sim.schedule_at(3.0, [] {}, "once");
  sim.run();
  sim.set_monitor(nullptr);
}

TEST(SimProfiler, SampledCountsAndDepthAreExact) {
  SimProfiler profiler;
  FullCountMonitor reference;
  SimMonitorMux mux;
  mux.add(&profiler);
  mux.add(&reference);
  run_labeled_chains(mux);

  std::map<std::string, std::uint64_t> counted;
  std::uint64_t total = 0;
  for (const auto& cat : profiler.categories()) {
    counted[cat.label] = cat.events;
    total += cat.events;
  }
  EXPECT_EQ(counted, reference.events);
  EXPECT_EQ(profiler.total_events(), total);
  EXPECT_EQ(profiler.queue_depth().count(), reference.depth.count());
  EXPECT_EQ(profiler.queue_depth().mean(), reference.depth.mean());
  EXPECT_EQ(profiler.queue_depth().variance(), reference.depth.variance());
  EXPECT_EQ(profiler.queue_depth().max(), reference.depth.max());
}

TEST(SimProfiler, EveryLabelWithEventsHasATimedSample) {
  SimProfiler profiler;
  run_labeled_chains(profiler);
  double sum = 0.0;
  for (const auto& cat : profiler.categories()) {
    EXPECT_GE(cat.timed_events, 1u) << cat.label;
    EXPECT_LE(cat.timed_events, cat.events) << cat.label;
    EXPECT_GE(cat.wall_seconds, 0.0) << cat.label;
    sum += cat.wall_seconds;
  }
  EXPECT_DOUBLE_EQ(profiler.total_wall_seconds(), sum);
}

std::uint64_t timed_events_of(const SimProfiler& profiler,
                              const std::string& label) {
  for (const auto& cat : profiler.categories()) {
    if (cat.label == label) return cat.timed_events;
  }
  return 0;
}

// Drives the monitor callbacks directly and records, per label, the
// indices (within that label's own events) of the timed ones: an event was
// timed iff it raised its category's timed_events count.
std::map<std::string, std::vector<std::uint64_t>> timed_indices(
    SimProfiler& profiler, const std::vector<const char*>& labels) {
  std::map<std::string, std::vector<std::uint64_t>> timed;
  std::map<std::string, std::uint64_t> seen;
  for (const char* label : labels) {
    const std::uint64_t before = timed_events_of(profiler, label);
    profiler.on_event_begin(0.0, label, 3);
    profiler.on_event_end(0.0, label);
    const std::uint64_t after = timed_events_of(profiler, label);
    EXPECT_LE(after - before, 1u) << label;
    if (after != before) timed[label].push_back(seen[label]);
    ++seen[label];
  }
  return timed;
}

// An irregular interleaving of three labels: "a" periodic with period 3,
// "b" in bursts, "c" rare.
std::vector<const char*> interleaved_labels() {
  std::vector<const char*> labels;
  for (int i = 0; i < 5000; ++i) {
    labels.push_back(i % 3 == 0 ? "a" : (i % 7 < 4 ? "b" : "c"));
    if (i % 97 == 0) labels.push_back("c");
  }
  return labels;
}

TEST(SimProfiler, TimedEventsFollowTheDocumentedStride) {
  SimProfiler profiler;
  const auto labels = interleaved_labels();
  const auto timed = timed_indices(profiler, labels);
  constexpr std::uint64_t kMinGap =
      SimProfiler::kStride - SimProfiler::kJitter / 2;
  constexpr std::uint64_t kMaxGap =
      SimProfiler::kStride + SimProfiler::kJitter / 2 - 1;
  std::map<std::string, std::uint64_t> events;
  for (const char* label : labels) ++events[label];
  for (const auto& [label, idx] : timed) {
    ASSERT_FALSE(idx.empty()) << label;
    EXPECT_EQ(idx.front(), 0u) << label << ": first event not timed";
    std::set<std::uint64_t> gaps;
    for (std::size_t i = 1; i < idx.size(); ++i) {
      const std::uint64_t gap = idx[i] - idx[i - 1];
      EXPECT_GE(gap, kMinGap) << label;
      EXPECT_LE(gap, kMaxGap) << label;
      gaps.insert(gap);
    }
    // The jitter really varies the gap, so a period inside one label
    // cannot lock onto the stride.
    if (idx.size() > 20) {
      EXPECT_GT(gaps.size(), 1u) << label;
    }
    // No more untimed events after the last timed one than a gap allows.
    EXPECT_LE(events[label] - 1 - idx.back(), kMaxGap) << label;
  }
  std::map<std::string, std::uint64_t> reported;
  for (const auto& cat : profiler.categories()) {
    reported[cat.label] = cat.timed_events;
    EXPECT_EQ(cat.events, events[cat.label]);
  }
  for (const auto& [label, idx] : timed) {
    EXPECT_EQ(reported[label], idx.size()) << label;
  }
}

TEST(SimProfiler, IdenticalRunsTimeTheSameEvents) {
  SimProfiler first;
  SimProfiler second;
  const auto labels = interleaved_labels();
  EXPECT_EQ(timed_indices(first, labels), timed_indices(second, labels));
  // reset() restarts the sample schedule too.
  first.reset();
  SimProfiler fresh;
  EXPECT_EQ(timed_indices(first, labels), timed_indices(fresh, labels));
}

}  // namespace
}  // namespace pds
