// Traced per-layer benchmark binary. For one workload it alternates, until
// the wall budget is spent, between
//   * an untraced run through the public entry point (run_study_a or
//     parse_scenario + run_scenario), and
//   * a traced run that assembles the same simulation from the public layer
//     classes the entry point uses (Simulator, make_scheduler, Link,
//     traffic sources, stats recorders, obs sinks; Network and RpcWorkload
//     for the fabric), with forwarding decorators recording spans at every
//     layer boundary.
// The traced run must reproduce the entry point's result digest exactly;
// otherwise it measured a different program and the run is reported as
// incorrect. Per-layer metrics go to the last stdout line as one JSON
// object; the per-(parent, name) span aggregates go to --spans-out.
//
//   pdsbench_traced --workload=<name> --seed=<n> --seconds=<s>
//                   --work-dir=<dir> --spans-out=<file>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "core/study_a.hpp"
#include "net/flows.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "packet/size_law.hpp"
#include "sched/link.hpp"
#include "stats/delay_stats.hpp"
#include "stats/jitter.hpp"
#include "stats/percentile.hpp"
#include "stats/sawtooth.hpp"
#include "traffic/calibration.hpp"
#include "traffic/source.hpp"
#include "tracing.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "workloads.hpp"

namespace {

using pdsbench::LogHist;
using pdsbench::Scope;
using pdsbench::SpanRecorder;
using pdsbench::Workload;

// What one traced run measured beyond the spans.
struct LayerRun {
  std::uint64_t digest = 0;
  double wall_s = 0.0;         // whole traced repetition
  std::uint64_t events = 0;
  std::uint64_t packets = 0;   // departures (single link) / route exits
  std::uint64_t transmissions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t run_allocs = 0;
  std::int64_t heap_peak = 0;  // peak live heap above the pre-set-up level
  std::uint64_t retained_samples = 0;
  double parse_s = 0.0;
  double build_s = 0.0;
  double route_s = 0.0;
  std::uint64_t rpcs_issued = 0;
  std::uint64_t rpcs_completed = 0;
  std::uint64_t rpcs_failed = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t flow_timer_events = 0;
  std::uint64_t pending_max = 0;
  double pending_p50 = 0.0;
};

// Per-repetition shared recorders (allocated once, outside every measured
// window).
struct Tracers {
  SpanRecorder spans;
  LogHist backlog;
  std::int64_t kernel_self_ns = 0;  // run phase minus time inside events
};

// ---------------------------------------------------------------------------
// single_link_wtp / single_link_monitored: the run_study_a assembly for the
// configuration subset the workloads use (no monitor taus, percentiles,
// recorded traces, fault or control plans, controller or spans).
// ---------------------------------------------------------------------------
LayerRun traced_study_a(const pds::StudyAConfig& config, Tracers& tr) {
  PDS_CHECK(config.monitor_taus.empty() && config.report_percentiles.empty() &&
                !config.record_trace && !config.record_departures &&
                config.fault_plan.empty() && config.control_plan.empty() &&
                !config.controller.enabled() && config.spans_out.empty(),
            "traced Study A assembly covers only the benchmark's configs");
  using namespace pds;
  LayerRun out;
  SpanRecorder& rec = tr.spans;
  const std::int64_t live0 = pdsbench::alloc::live_bytes();
  pdsbench::alloc::reset_peak();
  const double t_start = pdsbench::now_seconds();

  config.validate();
  const std::uint32_t n = config.num_classes();
  const SimTime warmup = config.warmup_end();

  Simulator sim(config.event_queue);
  PacketIdAllocator ids;
  Rng master(config.seed);

  SchedulerConfig sched_config;
  sched_config.sdp = config.sdp;
  sched_config.link_capacity = config.capacity;
  auto inner = make_scheduler(config.scheduler, sched_config);
  pdsbench::TracedScheduler scheduler(*inner, rec, tr.backlog);

  const auto cls_name = [](ClassId c) {
    return "c" + std::to_string(paper_class_label(c));
  };
  const auto ratio_name = [&](ClassId c) {
    return "delay_ratio." + cls_name(c) + "_" + cls_name(c + 1);
  };
  std::unique_ptr<MetricsRegistry> registry;
  std::vector<Summary*> delay_summaries;
  std::vector<Counter*> arrival_counters;
  std::vector<Counter*> departure_counters;
  std::unique_ptr<MetricsSnapshotWriter> writer;
  if (!config.metrics_out.empty()) {
    registry = std::make_unique<MetricsRegistry>();
    for (ClassId c = 0; c < n; ++c) {
      delay_summaries.push_back(&registry->summary("delay." + cls_name(c)));
      arrival_counters.push_back(&registry->counter("arrivals." + cls_name(c)));
      departure_counters.push_back(
          &registry->counter("departures." + cls_name(c)));
      registry->gauge("backlog." + cls_name(c) + ".pkts");
      registry->gauge("backlog." + cls_name(c) + ".bytes");
      if (c + 1 < n) registry->gauge(ratio_name(c));
    }
    auto refresh = [reg = registry.get(), sched = inner.get(), n, cls_name,
                    ratio_name](SimTime) {
      for (ClassId c = 0; c < n; ++c) {
        reg->gauge("backlog." + cls_name(c) + ".pkts")
            .set(static_cast<double>(sched->backlog_packets(c)));
        reg->gauge("backlog." + cls_name(c) + ".bytes")
            .set(static_cast<double>(sched->backlog_bytes(c)));
      }
      for (ClassId c = 0; c + 1 < n; ++c) {
        const RunningStats& lo = reg->summary("delay." + cls_name(c)).window();
        const RunningStats& hi =
            reg->summary("delay." + cls_name(c + 1)).window();
        const bool defined =
            lo.count() > 0 && hi.count() > 0 && hi.mean() > 0.0;
        reg->gauge(ratio_name(c)).set(defined ? lo.mean() / hi.mean() : 0.0);
      }
    };
    writer = std::make_unique<MetricsSnapshotWriter>(
        sim, *registry, config.metrics_out, config.metrics_window,
        std::move(refresh));
  }
  std::unique_ptr<PacketTracer> tracer;
  std::unique_ptr<pdsbench::TracedProbe> probe;
  if (!config.trace_out.empty()) {
    tracer = std::make_unique<PacketTracer>(config.trace_sample, config.seed);
    probe = std::make_unique<pdsbench::TracedProbe>(*tracer, rec);
  }
  std::unique_ptr<SimProfiler> profiler;
  if (config.profile) profiler = std::make_unique<SimProfiler>();
  pdsbench::TracingMonitor monitor(rec, profiler.get());
  sim.set_monitor(&monitor);

  std::unique_ptr<ConformanceMonitor> conformance;
  std::unique_ptr<ViolationLog> violation_log;
  if (config.conformance_tau > 0.0) {
    ConformanceOptions copts;
    copts.tau = config.conformance_tau;
    copts.start = warmup;
    copts.tolerance = config.conformance_tolerance;
    copts.min_samples = config.conformance_min_samples;
    conformance = std::make_unique<ConformanceMonitor>(config.sdp, copts);
    conformance->set_class_namer(cls_name);
    if (registry) conformance->bind_metrics(*registry);
    if (!config.conformance_out.empty()) {
      violation_log =
          std::make_unique<ViolationLog>(config.conformance_out, cls_name);
      conformance->set_violation_sink(
          [log = violation_log.get()](const ConformanceViolation& v) {
            log->write(v);
          });
    }
  }

  StudyAResult result;
  ClassDelayStats delays(n, warmup);
  SawtoothIndex sawtooth(n);
  JitterEstimator jitter(n);
  std::uint64_t departures_all = 0;

  // The recorders below are independent of each other, so grouping the
  // stats ones into one span does not change any result.
  Link link(sim, scheduler, config.capacity,
            [&](Packet&& p, SimTime wait, SimTime now) {
              ++departures_all;
              {
                Scope s(rec, pdsbench::kStatsRecord);
                delays.record(p.cls, wait, now);
                if (now >= warmup) {
                  ++result.total_departures;
                  sawtooth.record(p.cls, wait);
                  jitter.record(p.cls, wait);
                }
              }
              if (conformance) {
                Scope s(rec, pdsbench::kObsConformance);
                conformance->record(p.cls, wait, now);
              }
              if (registry) {
                Scope s(rec, pdsbench::kObsMetrics);
                delay_summaries[p.cls]->observe(wait);
                departure_counters[p.cls]->inc();
              }
            });

  const DiscreteDist size_law = paper_size_law();
  const auto interarrivals = class_mean_interarrivals(
      config.utilization, config.load_fractions, config.capacity,
      size_law.mean());
  const auto make_gaps = [&](double mean) {
    return config.arrivals == ArrivalModel::kPareto
               ? pareto_gaps(config.pareto_alpha, mean)
               : exponential_gaps(mean);
  };
  std::vector<std::unique_ptr<RenewalSource>> sources;
  sources.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    sources.push_back(std::make_unique<RenewalSource>(
        sim, ids, c, make_gaps(interarrivals[c]), law_size(size_law),
        master.split(), [&](Packet p) {
          if (registry) {
            Scope s(rec, pdsbench::kObsMetrics);
            arrival_counters[p.cls]->inc();
          }
          Scope s(rec, pdsbench::kLinkArrive);
          link.arrive(std::move(p));
        }));
    sources.back()->start(kTimeZero);
  }
  if (probe) link.set_probe(probe.get());

  // --- run phase ---
  const std::int64_t root0 = rec.root_ns();
  const std::uint64_t allocs0 = pdsbench::alloc::calls();
  const std::int64_t r0 = pdsbench::clock_ns();
  sim.run_until(config.sim_time);
  const std::int64_t r1 = pdsbench::clock_ns();
  out.run_allocs = pdsbench::alloc::calls() - allocs0;
  tr.kernel_self_ns += (r1 - r0) - (rec.root_ns() - root0);

  for (auto& s : sources) s->stop();
  if (writer) {
    writer->flush();
    result.metrics_snapshots = writer->snapshots_written();
  }
  if (tracer) {
    link.set_probe(nullptr);
    tracer->save(config.trace_out);
    result.trace_records = tracer->records().size();
  }
  sim.set_monitor(nullptr);
  if (profiler) {
    std::ostringstream os;
    profiler->print(os);
    result.profile_report = os.str();
  }
  if (conformance) {
    conformance->finish();
    if (violation_log) violation_log->close();
    result.conformance = conformance->summary();
    result.violations = conformance->violations();
  }
  result.executed_events = sim.executed_events();
  result.mean_delays = delays.means();
  result.ratios = delays.successive_ratios();
  for (ClassId c = 0; c < n; ++c) {
    result.departures.push_back(delays.of(c).count());
  }
  result.measured_utilization = link.busy_time() / config.sim_time;
  for (ClassId c = 0; c < n; ++c) {
    result.sawtooth_index.push_back(sawtooth.index(c));
  }
  result.sawtooth_collapses = sawtooth.total_collapses();
  for (ClassId c = 0; c < n; ++c) result.jitter.push_back(jitter.jitter(c));

  if (!config.report_out.empty()) {
    RunReport report("study_a");
    Json run = Json::object();
    run.set("scheduler", to_string(config.scheduler))
        .set("classes", n)
        .set("utilization", config.utilization)
        .set("sim_time", config.sim_time)
        .set("seed", config.seed)
        .set("fault_plan", config.fault_plan)
        .set("control_plan", config.control_plan)
        .set("controller", to_string(config.controller.mode));
    report.set_section("run", std::move(run));
    Json means = Json::array();
    for (const double d : result.mean_delays) means.push(d);
    Json ratios = Json::array();
    for (const double r : result.ratios) ratios.push(r);
    Json res = Json::object();
    res.set("executed_events", result.executed_events)
        .set("total_departures", result.total_departures)
        .set("measured_utilization", result.measured_utilization)
        .set("mean_delays", std::move(means))
        .set("ratios", std::move(ratios));
    report.set_section("results", std::move(res));
    if (registry) report.set_section("metrics", metrics_json(*registry));
    if (profiler) {
      report.set_section("profile",
                         profile_json(*profiler, config.report_volatile));
    }
    if (conformance) {
      report.set_section(
          "conformance",
          conformance_json(result.conformance, result.violations));
    }
    report.write(config.report_out);
  }

  out.digest = pdsbench::digest(result);
  out.events = result.executed_events;
  out.packets = departures_all;
  out.transmissions = link.packets_sent();
  out.decisions = scheduler.decisions();
  out.pending_p50 = monitor.pending().quantile(0.5);
  out.pending_max = monitor.pending().max();
  out.heap_peak = pdsbench::alloc::peak_bytes() - live0;
  out.wall_s = pdsbench::now_seconds() - t_start;
  return out;
}

// ---------------------------------------------------------------------------
// fabric_k8_rpc: the serial run_scenario assembly for the directive subset
// the generated fabric uses (graph links, routed routes, open-loop sources,
// flows with auto reverse routes; no plans, budgets or metrics series).
// ---------------------------------------------------------------------------
LayerRun traced_fabric(const std::string& text, Tracers& tr) {
  using namespace pds;
  LayerRun out;
  SpanRecorder& rec = tr.spans;
  const std::int64_t live0 = pdsbench::alloc::live_bytes();
  pdsbench::alloc::reset_peak();
  const double t_start = pdsbench::now_seconds();

  const Scenario scenario = parse_scenario(text);
  const double t_parsed = pdsbench::now_seconds();
  out.parse_s = t_parsed - t_start;
  for (const auto& link : scenario.links) {
    PDS_CHECK(!link.from.empty() && link.buffer == 0,
              "traced fabric assembly needs graph links without buffers");
  }
  for (const auto& src : scenario.sources) {
    PDS_CHECK(src.kind != ScenarioSourceKind::kCbr,
              "traced fabric assembly has no cbr sources");
  }
  const double until = scenario.run.until;
  const double warmup = scenario.run.warmup;

  Simulator sim;
  PacketIdAllocator ids;
  FlowIdAllocator flow_ids;
  Rng master(scenario.run.seed);
  Network net(sim);

  std::map<std::string, NodeId> node_ids;
  for (const auto& name : scenario.nodes) node_ids[name] = net.add_node(name);
  std::uint32_t max_classes = 1;
  std::vector<LinkId> link_ids;
  std::vector<std::unique_ptr<pdsbench::TracedScheduler>> schedulers;
  for (const auto& link : scenario.links) {
    SchedulerConfig sc;
    sc.sdp = link.sdp;
    sc.link_capacity = link.capacity;
    sc.burst = link.burst;
    const LinkId id = net.add_edge(node_ids.at(link.from),
                                   node_ids.at(link.to), link.kind, sc,
                                   link.capacity, link.name);
    link_ids.push_back(id);
    Link& l = net.link_mut(id);
    schedulers.push_back(std::make_unique<pdsbench::TracedScheduler>(
        l.scheduler_mut(), rec, tr.backlog));
    l.set_scheduler(*schedulers.back());
    max_classes =
        std::max(max_classes, static_cast<std::uint32_t>(link.sdp.size()));
  }
  const double t_built = pdsbench::now_seconds();
  out.build_s = t_built - t_parsed;

  std::uint64_t total_exits = 0;
  std::vector<std::vector<SampleSet>> samples(
      scenario.routes.size(), std::vector<SampleSet>(max_classes));
  std::vector<std::vector<RpcWorkload*>> flow_dispatch;
  std::map<std::string, RouteId> route_ids;
  const auto dispatch = [&](const Packet& p, SimTime now) {
    for (RpcWorkload* wl : flow_dispatch[p.route]) {
      Scope s(rec, pdsbench::kFlowsExit);
      wl->on_route_exit(p, now);
    }
  };
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    PDS_CHECK(!route.from.empty(),
              "traced fabric assembly needs routed routes");
    route_ids[route.name] = net.add_route_between(
        node_ids.at(route.from), node_ids.at(route.to),
        [&, r](const Packet& p, SimTime now) {
          Scope s(rec, pdsbench::kRouteExit);
          ++total_exits;
          if (now >= warmup && p.cls < max_classes) {
            samples[r][p.cls].add(p.cum_queueing);
          }
          dispatch(p, now);
        });
  }
  std::map<std::string, RouteId> auto_reverse;
  std::vector<std::pair<RouteId, RouteId>> flow_routes;
  for (const auto& f : scenario.flows) {
    PDS_CHECK(f.reverse.empty(), "traced fabric assembly needs auto reverses");
    const RouteId forward = route_ids.at(f.route);
    auto it = auto_reverse.find(f.route);
    if (it == auto_reverse.end()) {
      const ScenarioRoute* route = nullptr;
      for (const auto& r : scenario.routes) {
        if (r.name == f.route) route = &r;
      }
      const RouteId reverse = net.add_route_between(
          node_ids.at(route->to), node_ids.at(route->from),
          [&](const Packet& p, SimTime now) {
            Scope s(rec, pdsbench::kRouteExit);
            ++total_exits;
            dispatch(p, now);
          });
      it = auto_reverse.emplace(f.route, reverse).first;
    }
    flow_routes.emplace_back(forward, it->second);
  }
  const double t_routed = pdsbench::now_seconds();
  out.route_s = t_routed - t_built;

  // Rng split order as in the entry point: sources in file order, then
  // workloads in file order.
  std::vector<std::unique_ptr<RenewalSource>> renewals;
  std::vector<std::unique_ptr<ClassMixSource>> mixes;
  for (const auto& src : scenario.sources) {
    const RouteId route = route_ids.at(src.route);
    auto gaps = src.pareto_alpha > 0.0 ? pareto_gaps(src.pareto_alpha, src.gap)
                                       : exponential_gaps(src.gap);
    auto handler = [&net, &rec, route](Packet p) {
      Scope s(rec, pdsbench::kLinkArrive);
      net.inject(std::move(p), route);
    };
    if (src.kind == ScenarioSourceKind::kRenewal) {
      renewals.push_back(std::make_unique<RenewalSource>(
          sim, ids, src.cls, std::move(gaps), fixed_size(src.size_bytes),
          master.split(), handler));
      renewals.back()->start(src.start);
    } else {
      mixes.push_back(std::make_unique<ClassMixSource>(
          sim, ids, src.fractions, std::move(gaps), fixed_size(src.size_bytes),
          master.split(), handler));
      mixes.back()->start(src.start);
    }
  }
  std::vector<std::unique_ptr<RpcWorkload>> workloads;
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const auto& f = scenario.flows[i];
    RpcConfig rc;
    rc.cls = f.cls;
    rc.users = f.users;
    rc.request_packets = f.request_packets;
    rc.response_packets = f.response_packets;
    rc.size_bytes = f.size_bytes;
    rc.think_mean = f.think_mean;
    rc.deadline = f.deadline;
    rc.rto = f.rto;
    rc.max_retries = f.max_retries;
    rc.backoff = f.backoff;
    rc.rto_cap = f.rto_cap;
    rc.throttle_tokens = f.throttle_tokens;
    rc.throttle_ratio = f.throttle_ratio;
    workloads.push_back(std::make_unique<RpcWorkload>(
        sim, net, ids, flow_ids, flow_routes[i].first, flow_routes[i].second,
        rc, master.split()));
    workloads.back()->set_warmup(warmup);
  }
  flow_dispatch.assign(net.num_routes(), {});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    flow_dispatch[flow_routes[i].first].push_back(workloads[i].get());
    if (flow_routes[i].second != flow_routes[i].first) {
      flow_dispatch[flow_routes[i].second].push_back(workloads[i].get());
    }
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    workloads[i]->start(scenario.flows[i].start);
  }
  pdsbench::TracingMonitor monitor(rec, nullptr);
  sim.set_monitor(&monitor);

  // --- run phase ---
  const std::int64_t root0 = rec.root_ns();
  const std::uint64_t allocs0 = pdsbench::alloc::calls();
  const std::int64_t r0 = pdsbench::clock_ns();
  sim.run_until(until);
  const std::int64_t r1 = pdsbench::clock_ns();
  out.run_allocs = pdsbench::alloc::calls() - allocs0;
  tr.kernel_self_ns += (r1 - r0) - (rec.root_ns() - root0);
  sim.set_monitor(nullptr);
  for (auto& s : renewals) s->stop();
  for (auto& s : mixes) s->stop();

  // The entry point's report, field for field.
  ScenarioReport report;
  report.total_exits = total_exits;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    for (ClassId c = 0; c < max_classes; ++c) {
      const auto& set = samples[r][c];
      out.retained_samples += set.count();
      if (set.empty()) continue;
      report.route_stats.push_back(ScenarioReport::RouteClassStats{
          scenario.routes[r].name, c, set.count(), set.mean(),
          set.percentile(95.0)});
    }
  }
  for (const auto& link : scenario.links) {
    const LinkId id = link_ids[&link - scenario.links.data()];
    ScenarioReport::LinkStats ls;
    ls.link = link.name;
    ls.sched = to_string(link.kind);
    ls.utilization = net.utilization(id);
    ls.packets_sent = net.link(id).packets_sent();
    ls.fault_drops = net.link(id).fault_drops();
    ls.control_drops = net.link(id).drain_drops() + net.link(id).shed_drops();
    out.transmissions += ls.packets_sent;
    report.link_stats.push_back(std::move(ls));
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& st = workloads[i]->stats();
    ScenarioReport::FlowStats fs;
    fs.route = scenario.flows[i].route;
    fs.cls = scenario.flows[i].cls;
    fs.users = workloads[i]->config().users;
    fs.issued = st.issued;
    fs.completed = st.completed;
    fs.failed = st.failed;
    fs.retries = st.retries;
    fs.throttled = st.throttled;
    if (!st.fct.empty()) {
      fs.fct_mean = st.fct.mean();
      const auto q = st.fct.percentiles({50.0, 95.0, 99.0});
      fs.fct_p50 = q[0];
      fs.fct_p95 = q[1];
      fs.fct_p99 = q[2];
    }
    fs.slo_attainment = st.slo_attainment();
    fs.deadline = scenario.flows[i].deadline;
    report.flow_stats.push_back(std::move(fs));
    out.retained_samples += st.fct.count();
    out.rpcs_issued += st.issued;
    out.rpcs_completed += st.completed;
    out.rpcs_failed += st.failed;
    out.rpc_retries += st.retries;
  }

  out.digest = pdsbench::digest(report);
  out.events = sim.executed_events();
  out.packets = total_exits;
  for (const auto& s : schedulers) out.decisions += s->decisions();
  out.flow_timer_events = monitor.events(pdsbench::kEvFlowIssue) +
                          monitor.events(pdsbench::kEvFlowRto);
  out.pending_p50 = monitor.pending().quantile(0.5);
  out.pending_max = monitor.pending().max();
  out.heap_peak = pdsbench::alloc::peak_bytes() - live0;
  out.wall_s = pdsbench::now_seconds() - t_start;
  return out;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  try {
    pds::ArgParser args(argc, argv);
    args.require_known(
        {"workload", "seed", "seconds", "work-dir", "spans-out"});
    const auto workload =
        pdsbench::parse_workload(args.get_string("workload", ""));
    if (!workload) {
      std::cerr << "pdsbench_traced: unknown --workload\n";
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    // Required, so the sinks never write into (and the cleanup never
    // touches) whatever directory the binary happens to start in.
    const std::string work_dir = args.get_string("work-dir", "");
    if (work_dir.empty()) {
      std::cerr << "pdsbench_traced: --work-dir is required\n";
      return 2;
    }
    const std::string spans_out = args.get_string("spans-out", "");
    const bool fabric = *workload == Workload::kFabricK8Rpc;
    const bool monitored = *workload == Workload::kSingleLinkMonitored;

    const std::string text =
        fabric ? pdsbench::fabric_scenario(seed, pdsbench::kFabricHorizon) : "";
    const auto config = pdsbench::study_a_config(
        seed, pdsbench::kStudyAHorizon, monitored ? work_dir : "");
    const auto plain_config =
        pdsbench::study_a_config(seed, pdsbench::kStudyAHorizon);

    auto tracers = std::make_unique<Tracers>();
    std::vector<double> entry_wall;
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<pdsbench::Check> checks;
    LayerRun last;
    double bytes_written = 0.0;
    const double start = pdsbench::now_seconds();
    while (traced_wall.empty() || pdsbench::now_seconds() - start < seconds) {
      // Untraced entry-point run(s), then the traced assembly.
      std::uint64_t entry_digest = 0;
      double t0 = pdsbench::now_seconds();
      if (fabric) {
        const auto report = pds::run_scenario(pds::parse_scenario(text),
                                              pds::ScenarioOptions{});
        entry_wall.push_back(pdsbench::now_seconds() - t0);
        entry_digest = pdsbench::digest(report);
        checks = pdsbench::check_fabric(report);
      } else {
        const auto result = pds::run_study_a(config);
        entry_wall.push_back(pdsbench::now_seconds() - t0);
        entry_digest = pdsbench::digest(result);
        if (monitored) {
          bytes_written = pdsbench::sink_bytes(work_dir);
          pdsbench::remove_sink_files(work_dir);
          t0 = pdsbench::now_seconds();
          const auto plain = pds::run_study_a(plain_config);
          plain_wall.push_back(pdsbench::now_seconds() - t0);
          checks = pdsbench::check_monitored(result, plain, config);
        } else {
          checks = pdsbench::check_study_a(result, config);
        }
      }
      last = fabric ? traced_fabric(text, *tracers)
                    : traced_study_a(config, *tracers);
      if (monitored) pdsbench::remove_sink_files(work_dir);
      traced_wall.push_back(last.wall_s);
      checks.push_back(pdsbench::Check{"traced_digest_equals_entry_point",
                                       last.digest == entry_digest, ""});
      attempted += 2;
      if (!pdsbench::all_pass(checks)) failed += 2;
    }

    const SpanRecorder& rec = tracers->spans;
    const auto self_per_call = [&](pdsbench::SpanName s) {
      const auto a = rec.total(s);
      return per(static_cast<double>(a.self_ns), static_cast<double>(a.count));
    };
    const auto self_per = [&](pdsbench::SpanName s, double den) {
      return per(static_cast<double>(rec.total(s).self_ns), den);
    };
    const double reps = static_cast<double>(traced_wall.size());
    const double packets = static_cast<double>(last.packets);
    const double events = static_cast<double>(last.events);

    std::map<std::string, std::pair<double, const char*>> m;
    m["dsim.events_per_packet"] = {per(events, packets), "count"};
    m["dsim.pending_p50"] = {last.pending_p50, "count"};
    m["dsim.pending_max"] = {static_cast<double>(last.pending_max), "count"};
    m["dsim.self_ns_per_event"] = {
        per(static_cast<double>(tracers->kernel_self_ns), events * reps), "ns"};
    m["sched.enqueue_ns"] = {self_per_call(pdsbench::kSchedEnqueue), "ns"};
    m["sched.dequeue_ns"] = {self_per_call(pdsbench::kSchedDequeue), "ns"};
    m["sched.backlog_p50"] = {tracers->backlog.quantile(0.5), "count"};
    m["sched.backlog_p99"] = {tracers->backlog.quantile(0.99), "count"};
    m["sched.decisions_per_packet"] = {
        per(static_cast<double>(last.decisions),
            static_cast<double>(last.transmissions)),
        "count"};
    // Self time of link.tx events: on the single link that is the Link's
    // completion path; on the fabric it also covers Network forwarding to
    // the next hop, reported as net.forward_self_ns instead.
    const double tx_self = self_per_call(pdsbench::kEvLinkTx);
    m["link.tx_self_ns"] = {fabric ? 0.0 : tx_self, "ns"};
    m["net.forward_self_ns"] = {fabric ? tx_self : 0.0, "ns"};
    m["traffic.emit_self_ns"] = {self_per_call(pdsbench::kEvTrafficSource),
                                 "ns"};
    m["stats.record_ns"] = {
        fabric ? self_per_call(pdsbench::kRouteExit)
               : self_per_call(pdsbench::kStatsRecord),
        "ns"};
    m["stats.retained_samples"] = {
        static_cast<double>(last.retained_samples), "count"};
    m["packet.allocs_per_packet"] = {
        per(static_cast<double>(last.run_allocs), packets), "count"};
    m["packet.heap_bytes_peak"] = {static_cast<double>(last.heap_peak), "B"};
    m["net.parse_s"] = {last.parse_s, "s"};
    m["net.build_s"] = {last.build_s, "s"};
    m["net.route_s"] = {last.route_s, "s"};
    m["net.hops_per_packet"] = {
        fabric ? per(static_cast<double>(last.transmissions), packets) : 0.0,
        "count"};
    m["flows.timer_events_per_rpc"] = {
        per(static_cast<double>(last.flow_timer_events),
            static_cast<double>(last.rpcs_issued)),
        "count"};
    m["flows.useful_ratio"] = {
        per(static_cast<double>(last.rpcs_completed),
            static_cast<double>(last.rpcs_completed + last.rpcs_failed +
                                last.rpc_retries)),
        "ratio"};
    m["obs.cost_ratio"] = {
        monitored ? per(pdsbench::median(entry_wall),
                        pdsbench::median(plain_wall))
                  : 0.0,
        "ratio"};
    const double per_packet_reps = packets * reps;
    m["obs.metrics_self_ns"] = {
        per(static_cast<double>(rec.total(pdsbench::kObsMetrics).self_ns +
                                rec.total(pdsbench::kEvPeriodic).self_ns),
            per_packet_reps),
        "ns"};
    m["obs.conformance_self_ns"] = {
        self_per(pdsbench::kObsConformance, per_packet_reps), "ns"};
    m["obs.trace_self_ns"] = {self_per(pdsbench::kObsTrace, per_packet_reps),
                              "ns"};
    m["obs.profiler_self_ns"] = {
        self_per(pdsbench::kObsProfiler, events * reps), "ns"};
    m["obs.bytes_written_per_packet"] = {per(bytes_written, packets), "B"};
    m["trace.overhead_ratio"] = {
        per(pdsbench::median(traced_wall), pdsbench::median(entry_wall)),
        "ratio"};

    if (!spans_out.empty()) {
      std::ofstream os(spans_out);
      rec.write(os);
    }
    for (const auto& c : checks) {
      std::cout << "check " << c.name << ": " << (c.pass ? "ok" : "FAIL")
                << (c.detail.empty() ? "" : " (" + c.detail + ")") << "\n";
    }
    std::printf("traced reps %zu digest %016llx\n", traced_wall.size(),
                static_cast<unsigned long long>(last.digest));
    std::ostringstream js;
    js.precision(10);
    js << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : m) {
      js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << v.first << ", \"unit\": \"" << v.second << "\"}";
      first = false;
    }
    js << "}}";
    std::cout << js.str() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pdsbench_traced: " << e.what() << "\n";
    return 1;
  }
}
