// Observability overhead guard.
//
// Quantifies what the obs hooks cost on the two hot paths they touch and
// asserts the "compiled in but disabled" configurations are effectively
// free (<5% by default):
//
//  1. Kernel event loop (guarded). Baseline replicates the pre-hook
//     Simulator loop exactly — same default queue, contract checks, queue
//     dispatch and bookkeeping — minus the SimMonitor branch, i.e. the
//     binary you would get from -DPDS_OBS=OFF. Against it we time the real
//     Simulator with no monitor (the disabled branch) and with a
//     SimProfiler attached (exact event counts and queue depth, the clock
//     read for a 1-in-~16 sample of each label's events).
//  2. Link transmission path (informational). A WTP link with no probe vs a
//     PacketTracer at sample rate 0 (every lifecycle event pays the inline
//     admission hash, then skips the probe), at rate 0.01 (the rate
//     single_link_monitored and simulate_cli's default trace use) and at
//     rate 1 (every event recorded). The no-probe configuration is the
//     disabled path; its only cost over compiled-out is one null-pointer
//     branch per lifecycle event.
//  3. Departure-side conformance monitoring (guarded). The same link run
//     with no ConformanceMonitor, with one constructed but disabled
//     (tau = 0, record() early-returns), and with live windowed monitoring.
//     The disabled configuration is what every run without
//     --conformance-tau pays and must stay within the threshold.
//
// The event-loop table also times a KernelSpanMonitor (span batching when
// --spans-out is live) next to the SimProfiler — informational, since the
// disabled-span path is exactly the "no monitor" row the guard covers.
//
// Two more informational rows price the sinks' text output: one metrics
// snapshot of a Study A-shaped registry (4 classes: per-class delay
// summaries, arrival/departure counters, backlog gauges, delay-ratio and
// conformance gauges) in microseconds per window, and PacketTracer::save in
// nanoseconds per record (the rate-1 link trace written to a temp file).
//
// Each table row is timed `--reps` times and the best run is kept. The two
// guards do not use those rows: each alternates its baseline and its
// disabled configuration over kBlocks (41) back-to-back pairs of short runs
// (a tenth of --events or --packets each) in this one process and gates
// the median per-pair ratio, so a shared host's slowdowns, which swing
// separate timings by tens of percent, cancel within a pair. Exits
// non-zero when a guarded overhead exceeds `--threshold` percent.
//
//   micro_obs_overhead [--events=2000000] [--packets=400000] [--reps=5]
//                      [--threshold=5]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "packet/size_law.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/table.hpp"

namespace {

constexpr std::uint32_t kChains = 64;  // keeps a realistic queue population
constexpr std::uint32_t kBlocks = 41;  // interleaved pairs per guard

template <typename F>
double best_seconds(std::uint32_t reps, F&& body) {
  double best = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// Median over kBlocks back-to-back pairs of t(candidate) / t(baseline).
// Each pair runs within a few milliseconds, so a host-wide slowdown hits
// both sides alike, and the two sides swap order every pair so neither
// always runs on a warm cache.
template <typename Base, typename Candidate>
double median_ratio(Base&& base, Candidate&& candidate) {
  const auto time = [](auto& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<double> ratios;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    double tb = 0.0;
    double tc = 0.0;
    if (b % 2 == 0) {
      tb = time(base);
      tc = time(candidate);
    } else {
      tc = time(candidate);
      tb = time(base);
    }
    ratios.push_back(tc / tb);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

// The kernel as it was before the SimMonitor hook existed: the Simulator's
// default queue held by value, identical scheduling checks, the same
// once-per-run dispatch to the concrete queue and the same per-event
// bookkeeping, so the only difference from Simulator-without-monitor is the
// hook branch — the cost compiling obs out would remove.
struct RawKernel {
  pds::EventQueue q{pds::kDefaultEventQueue};
  pds::SimTime now = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t executed = 0;
  bool stopped = false;
  std::uint64_t budget_events = 0;  // never armed, but tested per event

  // Inline like Simulator::schedule_at, which lives in its header.
  void schedule_at(pds::SimTime t, pds::SimEvent action, const char* label) {
    PDS_CHECK(t >= now, "cannot schedule an event in the past");
    PDS_CHECK(static_cast<bool>(action), "null event action");
    if (label != nullptr) action.set_label(label);
    q.push(t, seq++, std::move(action));
  }

  void schedule_in(pds::SimTime dt, pds::SimEvent action, const char* label) {
    PDS_CHECK(dt >= 0.0, "negative delay");
    schedule_at(now + dt, std::move(action), label);
  }

  // noinline like the real run loop, which lives in another translation
  // unit, so the baseline cannot win by inlining into the benchmark. The
  // budget test and per-run count mirror the Simulator's run loop.
  [[gnu::noinline]] void drain(pds::SimTime horizon, bool bounded) {
    const bool budgeted = budget_events > 0;
    std::uint64_t run_executed = 0;
    q.visit([&](auto& queue) {
      stopped = false;
      while (!queue.empty() && !stopped) {
        if (bounded && queue.next_time() > horizon) break;
        if (budgeted && run_executed >= budget_events) {
          throw std::runtime_error("event budget exceeded");
        }
        pds::EventItem ev = queue.pop();
        PDS_REQUIRE(ev.time >= now);
        now = ev.time;
        ++executed;
        ++run_executed;
        ev.action();
      }
    });
    if (bounded && !stopped && now < horizon) now = horizon;
  }

  void run() {
    drain(std::numeric_limits<pds::SimTime>::infinity(), /*bounded=*/false);
  }
};

void run_raw_event_chain(std::uint64_t events) {
  struct Chain {
    RawKernel* kernel;
    std::uint64_t* remaining;
    double gap;

    void arm() {
      kernel->schedule_in(
          gap,
          [this]() {
            // The budget is shared across chains; sibling events already
            // in flight when it reaches zero must not wrap it around.
            if (*remaining > 0 && --*remaining > 0) arm();
          },
          "bench.chain");
    }
  };
  RawKernel kernel;
  std::uint64_t remaining = events;
  std::vector<Chain> chains(kChains);
  for (std::uint32_t i = 0; i < kChains; ++i) {
    chains[i] = Chain{&kernel, &remaining,
                      1.0 + 1e-3 * static_cast<double>(i)};
    chains[i].arm();
  }
  kernel.run();
}

void run_sim_event_chain(std::uint64_t events, pds::SimMonitor* monitor) {
  struct Chain {
    pds::Simulator* sim;
    std::uint64_t* remaining;
    double gap;

    void arm() {
      sim->schedule_in(
          gap,
          [this]() {
            if (*remaining > 0 && --*remaining > 0) arm();
          },
          "bench.chain");
    }
  };
  pds::Simulator sim;
  sim.set_monitor(monitor);
  std::uint64_t remaining = events;
  std::vector<Chain> chains(kChains);
  for (std::uint32_t i = 0; i < kChains; ++i) {
    chains[i] = Chain{&sim, &remaining, 1.0 + 1e-3 * static_cast<double>(i)};
    chains[i].arm();
  }
  sim.run();
}

void run_link_path(std::uint64_t packets, pds::PacketProbe* probe,
                   pds::ConformanceMonitor* conformance = nullptr) {
  pds::Simulator sim;
  pds::SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  config.link_capacity = pds::kStudyACapacity;
  const auto sched = pds::make_scheduler(pds::SchedulerKind::kWtp, config);
  std::uint64_t departed = 0;
  // The branch + forwarded record() mirror the run_study_a departure path.
  pds::Link link(sim, *sched, config.link_capacity,
                 [&departed, conformance](pds::Packet&& p, pds::SimTime wait,
                                          pds::SimTime now) {
                   ++departed;
                   if (conformance) conformance->record(p.cls, wait, now);
                 });
  link.set_probe(probe);

  // Deterministic rho ~= 0.9 arrival chain, classes round-robin.
  struct Feeder {
    pds::Simulator* sim;
    pds::Link* link;
    std::uint64_t remaining;
    std::uint64_t next_id = 0;
    double gap;

    void arm() {
      sim->schedule_in(
          gap,
          [this]() {
            pds::Packet p;
            p.id = next_id++;
            p.cls = static_cast<pds::ClassId>(p.id % 4);
            p.size_bytes =
                static_cast<std::uint32_t>(pds::kPaperMeanPacketBytes);
            p.created = sim->now();
            link->arrive(p);
            if (--remaining > 0) arm();
          },
          "bench.feeder");
    }
  };
  Feeder feeder{&sim, &link, packets, 0,
                pds::kPaperMeanPacketBytes / config.link_capacity / 0.9};
  feeder.arm();
  sim.run();
  if (departed != packets) {
    throw std::logic_error("link bench lost packets");
  }
}

// `windows` snapshots of a Study A-shaped registry (27 metrics), each
// preceded by a refresh that sets every gauge and feeds every summary a few
// observations, as the Study A refresh and departures do.
void run_metrics_snapshots(std::uint64_t windows, const std::string& path) {
  constexpr pds::ClassId kClasses = 4;
  constexpr pds::SimTime kWindow = 1120.0;  // 100 p-units
  pds::Simulator sim;
  pds::MetricsRegistry reg;
  std::vector<pds::Summary*> delays;
  std::vector<pds::Counter*> counters;
  std::vector<pds::Gauge*> gauges;
  for (pds::ClassId c = 1; c <= kClasses; ++c) {
    const std::string cls = "c" + std::to_string(c);
    delays.push_back(&reg.summary("delay." + cls));
    counters.push_back(&reg.counter("arrivals." + cls));
    counters.push_back(&reg.counter("departures." + cls));
    gauges.push_back(&reg.gauge("backlog." + cls + ".pkts"));
    gauges.push_back(&reg.gauge("backlog." + cls + ".bytes"));
    if (c < kClasses) {
      const std::string pair = cls + "_c" + std::to_string(c + 1);
      gauges.push_back(&reg.gauge("delay_ratio." + pair));
      gauges.push_back(&reg.gauge("conformance.err." + pair));
    }
  }
  counters.push_back(&reg.counter("conformance.violations"));
  double x = 0.0;
  pds::MetricsSnapshotWriter writer(sim, reg, path, kWindow, [&](pds::SimTime) {
    for (pds::Gauge* g : gauges) g->set(x += 0.37);
    for (pds::Counter* c : counters) c->inc(17);
    for (pds::Summary* s : delays) {
      for (int i = 0; i < 4; ++i) s->observe(x += 1.3);
    }
  });
  sim.run_until(kWindow * static_cast<double>(windows));
  writer.flush();
  if (writer.snapshots_written() != windows) {
    throw std::logic_error("metrics bench missed a window");
  }
}

std::string pct(double ratio) {
  return pds::TablePrinter::num(100.0 * (ratio - 1.0), 2) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"events", "packets", "reps", "threshold", "help"});
    if (args.has("help")) {
      std::cerr << "usage: micro_obs_overhead [--events=2000000]\n"
                   "  [--packets=400000] [--reps=5] [--threshold=5]\n";
      return 0;
    }
    const auto events =
        static_cast<std::uint64_t>(args.get_int("events", 2000000));
    const auto packets =
        static_cast<std::uint64_t>(args.get_int("packets", 400000));
    const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
    const double threshold = args.get_double("threshold", 5.0);

    // --- kernel event loop -------------------------------------------------
    const double t_raw =
        best_seconds(reps, [&]() { run_raw_event_chain(events); });
    const double t_nomon =
        best_seconds(reps, [&]() { run_sim_event_chain(events, nullptr); });
    const double t_prof = best_seconds(reps, [&]() {
      pds::SimProfiler profiler;
      run_sim_event_chain(events, &profiler);
    });
    const double t_span = best_seconds(reps, [&]() {
      pds::SpanBuffer buffer;
      pds::KernelSpanMonitor monitor(buffer);
      run_sim_event_chain(events, &monitor);
      monitor.finish();
    });

    // --- link transmission path -------------------------------------------
    const double t_noprobe =
        best_seconds(reps, [&]() { run_link_path(packets, nullptr); });
    const double t_trace0 = best_seconds(reps, [&]() {
      pds::PacketTracer tracer(0.0, 1);
      run_link_path(packets, &tracer);
    });
    const double t_trace_pct = best_seconds(reps, [&]() {
      pds::PacketTracer tracer(0.01, 1);
      run_link_path(packets, &tracer);
    });
    const double t_trace1 = best_seconds(reps, [&]() {
      pds::PacketTracer tracer(1.0, 1);
      run_link_path(packets, &tracer);
    });

    // --- departure-side conformance monitoring ----------------------------
    const std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
    const double t_conf_off = best_seconds(reps, [&]() {
      pds::ConformanceOptions copts;
      copts.tau = 0.0;  // constructed but disabled: record() early-returns
      pds::ConformanceMonitor conformance(sdp, copts);
      run_link_path(packets, nullptr, &conformance);
    });
    const double t_conf_on = best_seconds(reps, [&]() {
      pds::ConformanceOptions copts;
      copts.tau = 500.0;  // live Eq. 2 windowing on every departure
      pds::ConformanceMonitor conformance(sdp, copts);
      run_link_path(packets, nullptr, &conformance);
      conformance.finish();
    });

    // --- sink text output ---------------------------------------------------
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "micro_obs_overhead")
            .string();
    const std::uint64_t windows = std::max<std::uint64_t>(events / 200, 100);
    const double t_snapshots = best_seconds(
        reps, [&]() { run_metrics_snapshots(windows, scratch + ".csv"); });
    std::remove((scratch + ".csv").c_str());
    pds::PacketTracer full_trace(1.0, 1);
    run_link_path(packets, &full_trace);
    const double t_save = best_seconds(
        reps, [&]() { full_trace.save(scratch + ".trace.csv"); });
    std::remove((scratch + ".trace.csv").c_str());
    const auto records = static_cast<double>(full_trace.records().size());

    const double ev = static_cast<double>(events);
    const double pk = static_cast<double>(packets);
    pds::TablePrinter table(
        {"path", "configuration", "wall (ms)", "Mops/s", "overhead"});
    const auto row = [&](const char* path, const char* cfg, double t,
                         double ops, double base) {
      table.add_row({path, cfg, pds::TablePrinter::num(1e3 * t, 1),
                     pds::TablePrinter::num(ops / t / 1e6, 2),
                     t == base ? "-" : pct(t / base)});
    };
    row("event loop", "raw queue (no hooks)", t_raw, ev, t_raw);
    row("event loop", "simulator, no monitor", t_nomon, ev, t_raw);
    row("event loop", "simulator + SimProfiler (sampled)", t_prof, ev,
        t_raw);
    row("event loop", "simulator + KernelSpanMonitor", t_span, ev, t_raw);
    row("link", "no probe", t_noprobe, pk, t_noprobe);
    row("link", "PacketTracer rate 0", t_trace0, pk, t_noprobe);
    row("link", "PacketTracer rate 0.01", t_trace_pct, pk, t_noprobe);
    row("link", "PacketTracer rate 1", t_trace1, pk, t_noprobe);
    row("link", "conformance disabled (tau 0)", t_conf_off, pk, t_noprobe);
    row("link", "conformance tau 500", t_conf_on, pk, t_noprobe);
    table.print(std::cout);

    pds::TablePrinter sinks({"sink", "work", "cost"});
    sinks.add_row({"metrics snapshot (Study A registry, 27 metrics)",
                   std::to_string(windows) + " windows",
                   pds::TablePrinter::num(
                       1e6 * t_snapshots / static_cast<double>(windows), 2) +
                       " us/window"});
    sinks.add_row({"PacketTracer::save", std::to_string(
                       full_trace.records().size()) + " records",
                   pds::TablePrinter::num(1e9 * t_save / records, 1) +
                       " ns/record"});
    std::cout << "\n";
    sinks.print(std::cout);

    // The guards: obs compiled in but disabled must stay within `threshold`
    // percent of the path without the hook — the monitor branch in the event
    // loop, and the conformance branch + early-return on the departure path.
    const std::uint64_t block_events = std::max<std::uint64_t>(events / 10, 1000);
    const std::uint64_t block_packets =
        std::max<std::uint64_t>(packets / 10, 1000);
    const double over =
        100.0 * (median_ratio(
                     [&]() { run_raw_event_chain(block_events); },
                     [&]() { run_sim_event_chain(block_events, nullptr); }) -
                 1.0);
    const double conf_over =
        100.0 * (median_ratio(
                     [&]() { run_link_path(block_packets, nullptr); },
                     [&]() {
                       pds::ConformanceOptions copts;
                       copts.tau = 0.0;
                       pds::ConformanceMonitor conformance(sdp, copts);
                       run_link_path(block_packets, nullptr, &conformance);
                     }) -
                 1.0);
    const bool pass = over < threshold && conf_over < threshold;
    std::cout << "\n"
              << (over < threshold ? "PASS" : "FAIL")
              << ": event loop with monitor hook disabled costs "
              << pds::TablePrinter::num(over, 2) << "% (median of "
              << kBlocks << " interleaved pairs; threshold "
              << pds::TablePrinter::num(threshold, 0) << "%)\n"
              << (conf_over < threshold ? "PASS" : "FAIL")
              << ": departure path with conformance disabled costs "
              << pds::TablePrinter::num(conf_over, 2) << "% (median of "
              << kBlocks << " interleaved pairs; threshold "
              << pds::TablePrinter::num(threshold, 0) << "%)\n";
    return pass ? 0 : 1;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
