#include "net/scenario.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/flows.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"
#include "util/directive.hpp"

namespace pds {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  fail_line("scenario", line_no, msg);
}

// Scenario directives take bare flags (poisson) besides key=value options.
Options options(const Directive& d, std::size_t first) {
  return Options(d, first, Options::Flags::kAllowed);
}

// A 32-bit integer option: an index (lo = 0) or a count (lo = 1).
std::uint32_t u32(Options& opts, const std::string& key,
                  std::uint64_t lo = 0) {
  return static_cast<std::uint32_t>(opts.integer(key, lo, kMaxU32));
}

std::uint32_t u32_or(Options& opts, const std::string& key,
                     std::uint32_t def) {
  return static_cast<std::uint32_t>(opts.integer_or(key, def, 0, kMaxU32));
}

// Parse-time view of the declared graph, for routed-route validation.
struct ParseGraph {
  std::map<std::string, NodeId> node_index;
  std::vector<GraphEdge> edges;  // link = index into scenario.links
  std::map<std::string, std::uint32_t> link_index;  // into scenario.links
  std::set<std::string> route_names;
};

// The options every link directive shares (capacity=, sched=, sdp=,
// burst=, buffer=), held to the contracts Link and the schedulers enforce.
void parse_link_options(ScenarioLink& link, Options& opts,
                        std::size_t line_no) {
  link.capacity = opts.number("capacity");
  if (link.capacity <= 0.0) fail(line_no, "capacity must be positive");
  const std::string sched = opts.require("sched");
  try {
    link.kind = scheduler_kind_from_string(sched);
  } catch (const std::invalid_argument&) {
    fail(line_no, "unknown scheduler " + sched);
  }
  link.sdp = opts.list("sdp");
  for (std::size_t i = 0; i < link.sdp.size(); ++i) {
    if (link.sdp[i] <= 0.0) fail(line_no, "sdp values must be positive");
    if (i > 0 && link.sdp[i] < link.sdp[i - 1]) {
      fail(line_no,
           "sdp values must be non-decreasing (higher class = larger s)");
    }
  }
  // burst=<k>: packets drained per scheduler decision (1 = classic
  // single-packet service). buffer=<pkts>: a finite drop-tail buffer (0 =
  // the paper's lossless link).
  link.burst = static_cast<std::uint32_t>(
      opts.integer_or("burst", 1, 1, kMaxBurst));
  link.buffer = opts.integer_or("buffer", 0, 0, kMaxExactInteger);
}

void add_scenario_node(Scenario& scenario, ParseGraph& graph,
                       const std::string& name, std::size_t line_no) {
  if (graph.node_index.count(name)) {
    fail(line_no, "duplicate node name " + name);
  }
  graph.node_index[name] = static_cast<NodeId>(scenario.nodes.size());
  scenario.nodes.push_back(name);
}

void add_scenario_link(Scenario& scenario, ParseGraph& graph,
                       ScenarioLink link, std::size_t line_no) {
  const auto index = static_cast<std::uint32_t>(scenario.links.size());
  if (!graph.link_index.emplace(link.name, index).second) {
    fail(line_no, "duplicate link name " + link.name);
  }
  if (!link.from.empty()) {
    graph.edges.push_back(
        GraphEdge{index, graph.node_index.at(link.from),
                  graph.node_index.at(link.to)});
  }
  scenario.links.push_back(std::move(link));
}

NodeId require_node(const ParseGraph& graph, const std::string& name,
                    std::size_t line_no) {
  const auto it = graph.node_index.find(name);
  if (it == graph.node_index.end()) fail(line_no, "unknown node " + name);
  return it->second;
}

const ScenarioRoute* find_route(const Scenario& scenario,
                                const std::string& name) {
  for (const auto& r : scenario.routes) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void expand_topology(Scenario& scenario, ParseGraph& graph,
                     const Directive& d) {
  const std::size_t line_no = d.line();
  if (d.size() < 2) fail(line_no, "topology needs a kind");
  const std::string& kind = d[1];
  Options opts = options(d, 2);
  TopologySpec spec;
  if (kind == "line" || kind == "ring") {
    const std::uint32_t n = u32(opts, "n");
    if (kind == "line") {
      if (n < 2) fail(line_no, "line needs n >= 2");
      spec = make_line_topology(n);
    } else {
      if (n < 3) fail(line_no, "ring needs n >= 3");
      spec = make_ring_topology(n);
    }
  } else if (kind == "fat_tree") {
    const std::uint32_t k = u32(opts, "k");
    if (k < 2 || k % 2 != 0) fail(line_no, "fat_tree needs an even k >= 2");
    spec = make_fat_tree_topology(k);
  } else if (kind == "two_tier") {
    const std::uint32_t cores = u32(opts, "cores");
    const std::uint32_t pops = u32(opts, "pops");
    if (cores < 1 || pops < 1) {
      fail(line_no, "two_tier needs cores >= 1 and pops >= 1");
    }
    spec = make_two_tier_topology(cores, pops);
  } else {
    fail(line_no, "unknown topology kind " + kind);
  }

  ScenarioLink proto;
  parse_link_options(proto, opts, line_no);
  const std::string prefix = opts.take("prefix").value_or("");
  opts.finish();

  for (const auto& name : spec.nodes) {
    add_scenario_node(scenario, graph, prefix + name, line_no);
  }
  for (const auto& [a, b] : spec.edges) {
    for (int dir = 0; dir < 2; ++dir) {
      ScenarioLink link = proto;
      link.from = prefix + (dir == 0 ? a : b);
      link.to = prefix + (dir == 0 ? b : a);
      link.name = link.from + ">" + link.to;
      add_scenario_link(scenario, graph, std::move(link), line_no);
    }
  }
}

// gap= with an optional pareto=<alpha> or poisson flag: the renewal and mix
// sources' interarrival law, held to the gap samplers' contracts.
void parse_gaps(ScenarioSource& src, Options& opts, std::size_t line_no) {
  src.gap = opts.number("gap");
  if (src.gap <= 0.0) fail(line_no, "gap must be positive");
  if (opts.flag("poisson")) {
    src.pareto_alpha = 0.0;
    return;
  }
  src.pareto_alpha = opts.number_or("pareto", 1.9);
  if (src.pareto_alpha <= 1.0) {
    fail(line_no, "pareto shape must exceed 1 (the gap mean must exist)");
  }
}

// Line numbers of the source and flows directives, in file order, for the
// checks that need the whole graph.
struct DirectiveLines {
  std::vector<std::size_t> sources;
  std::vector<std::size_t> flows;
};

// Links a path crosses, as indices into scenario.links; a routed path is
// the one the network will compute over the complete graph.
std::vector<std::uint32_t> path_links(const Scenario& scenario,
                                      const ParseGraph& graph,
                                      const std::string& from,
                                      const std::string& to) {
  return shortest_path_links(static_cast<NodeId>(scenario.nodes.size()),
                             graph.edges, graph.node_index.at(from),
                             graph.node_index.at(to));
}

std::vector<std::uint32_t> route_links(const Scenario& scenario,
                                       const ParseGraph& graph,
                                       const ScenarioRoute& route) {
  if (!route.from.empty()) {
    return path_links(scenario, graph, route.from, route.to);
  }
  std::vector<std::uint32_t> path;
  for (const auto& name : route.links) {
    path.push_back(graph.link_index.at(name));
  }
  return path;
}

// Packets of `classes` distinct classes (0..classes-1) must find a class
// queue on every link they cross: each link has one per SDP entry.
void require_classes(const Scenario& scenario,
                     const std::vector<std::uint32_t>& path,
                     std::uint64_t classes, const std::string& what,
                     std::size_t line_no) {
  for (const std::uint32_t l : path) {
    const ScenarioLink& link = scenario.links[l];
    if (classes > link.sdp.size()) {
      fail(line_no, what + ": link " + link.name + " has only " +
                        std::to_string(link.sdp.size()) + " classes");
    }
  }
}

// Runs once the whole file is read: a routed path can change when a later
// line adds an edge. Paths are resolved only for a class count some link
// lacks, so a scenario whose links all carry enough classes pays one pass
// over its links.
void check_classes(const Scenario& scenario, const ParseGraph& graph,
                   const DirectiveLines& lines) {
  std::uint64_t everywhere = std::numeric_limits<std::uint64_t>::max();
  for (const ScenarioLink& link : scenario.links) {
    everywhere = std::min<std::uint64_t>(everywhere, link.sdp.size());
  }
  for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
    const ScenarioSource& src = scenario.sources[i];
    const bool mix = src.kind == ScenarioSourceKind::kMix;
    const std::uint64_t classes =
        mix ? src.fractions.size() : std::uint64_t{src.cls} + 1;
    if (classes <= everywhere) continue;
    require_classes(
        scenario,
        route_links(scenario, graph, *find_route(scenario, src.route)),
        classes,
        mix ? std::to_string(classes) + " fractions"
            : "class=" + std::to_string(src.cls),
        lines.sources[i]);
  }
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const ScenarioFlows& f = scenario.flows[i];
    const std::uint64_t classes = std::uint64_t{f.cls} + 1;
    if (classes <= everywhere) continue;
    const ScenarioRoute& route = *find_route(scenario, f.route);
    const std::string what = "class=" + std::to_string(f.cls);
    require_classes(scenario, route_links(scenario, graph, route), classes,
                    what, lines.flows[i]);
    const auto back =
        f.reverse.empty()
            ? path_links(scenario, graph, route.to, route.from)
            : route_links(scenario, graph, *find_route(scenario, f.reverse));
    require_classes(scenario, back, classes, what, lines.flows[i]);
  }
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  ParseGraph graph;
  DirectiveLines lines;
  bool saw_run = false;
  for_each_directive(text, "scenario", [&](const Directive& d) {
    const std::size_t line_no = d.line();
    const std::string& kind = d.name();

    if (kind == "node") {
      if (d.size() < 2) fail(line_no, "node needs a name");
      Options opts = options(d, 2);
      opts.finish();
      add_scenario_node(scenario, graph, d[1], line_no);
    } else if (kind == "edge") {
      if (d.size() < 2) fail(line_no, "edge needs a name");
      ScenarioLink link;
      link.name = d[1];
      Options opts = options(d, 2);
      link.from = opts.require("from");
      link.to = opts.require("to");
      require_node(graph, link.from, line_no);
      require_node(graph, link.to, line_no);
      if (link.from == link.to) fail(line_no, "edge endpoints must differ");
      parse_link_options(link, opts, line_no);
      opts.finish();
      add_scenario_link(scenario, graph, std::move(link), line_no);
    } else if (kind == "topology") {
      expand_topology(scenario, graph, d);
    } else if (kind == "link") {
      if (d.size() < 2) fail(line_no, "link needs a name");
      ScenarioLink link;
      link.name = d[1];
      Options opts = options(d, 2);
      parse_link_options(link, opts, line_no);
      opts.finish();
      add_scenario_link(scenario, graph, std::move(link), line_no);
    } else if (kind == "route") {
      if (d.size() < 3) fail(line_no, "route needs a name and links");
      ScenarioRoute route;
      route.name = d[1];
      if (!graph.route_names.insert(route.name).second) {
        fail(line_no, "duplicate route name " + route.name);
      }
      const bool routed = d[2].find('=') != std::string::npos;
      if (routed) {
        Options opts = options(d, 2);
        route.from = opts.require("from");
        route.to = opts.require("to");
        opts.finish();
        const NodeId from = require_node(graph, route.from, line_no);
        const NodeId to = require_node(graph, route.to, line_no);
        if (from == to) fail(line_no, "route endpoints must differ");
        const auto path = shortest_path_links(
            static_cast<NodeId>(scenario.nodes.size()), graph.edges, from,
            to);
        if (path.empty()) {
          fail(line_no, "no path from " + route.from + " to " + route.to);
        }
      } else {
        for (std::size_t i = 2; i < d.size(); ++i) {
          if (!graph.link_index.count(d[i])) {
            fail(line_no, "unknown link " + d[i]);
          }
          route.links.push_back(d[i]);
        }
      }
      scenario.routes.push_back(std::move(route));
    } else if (kind == "source") {
      if (d.size() < 3) fail(line_no, "source needs a kind and route");
      ScenarioSource src;
      const auto& sk = d[1];
      if (sk == "renewal") {
        src.kind = ScenarioSourceKind::kRenewal;
      } else if (sk == "mix") {
        src.kind = ScenarioSourceKind::kMix;
      } else if (sk == "cbr") {
        src.kind = ScenarioSourceKind::kCbr;
      } else {
        fail(line_no, "unknown source kind " + sk);
      }
      src.route = d[2];
      if (!find_route(scenario, src.route)) {
        fail(line_no, "unknown route " + src.route);
      }

      Options opts = options(d, 3);
      src.start = opts.number_or("start", 0.0);
      if (src.start < 0.0) fail(line_no, "start must be non-negative");
      src.size_bytes = u32(opts, "size", 1);
      switch (src.kind) {
        case ScenarioSourceKind::kRenewal:
          src.cls = u32(opts, "class");
          parse_gaps(src, opts, line_no);
          break;
        case ScenarioSourceKind::kMix: {
          src.fractions = opts.list("fractions");
          double total = 0.0;
          for (const double f : src.fractions) {
            if (f < 0.0) fail(line_no, "fractions must be non-negative");
            total += f;
          }
          if (total <= 0.0) fail(line_no, "fractions must not all be zero");
          parse_gaps(src, opts, line_no);
          break;
        }
        case ScenarioSourceKind::kCbr:
          src.cls = u32(opts, "class");
          src.count = u32(opts, "count", 1);
          src.interval = opts.number("interval");
          if (src.interval <= 0.0) {
            fail(line_no, "interval must be positive");
          }
          break;
      }
      opts.finish();
      scenario.sources.push_back(std::move(src));
      lines.sources.push_back(line_no);
    } else if (kind == "flows") {
      if (d.size() < 2) fail(line_no, "flows need a route");
      ScenarioFlows f;
      f.route = d[1];
      const ScenarioRoute* route = find_route(scenario, f.route);
      if (!route) fail(line_no, "unknown route " + f.route);

      Options opts = options(d, 2);
      f.cls = static_cast<ClassId>(u32(opts, "class"));
      f.users = u32(opts, "users");
      f.size_bytes = u32(opts, "size");
      f.think_mean = opts.number("think");
      f.request_packets = u32_or(opts, "request", 1);
      f.response_packets =
          u32_or(opts, "response", f.request_packets);
      f.deadline = opts.number_or("deadline", 0.0);
      f.rto = opts.number_or("rto", 0.0);
      f.max_retries = u32_or(opts, "retries", 0);
      f.backoff = opts.number_or("backoff", 2.0);
      f.rto_cap = opts.number_or("rto_cap", 0.0);
      f.throttle_tokens = opts.number_or("throttle", 0.0);
      f.throttle_ratio = opts.number_or("throttle_ratio", 0.1);
      f.start = opts.number_or("start", 0.0);
      if (const auto rev = opts.take("reverse")) {
        f.reverse = *rev;
        if (!find_route(scenario, f.reverse)) {
          fail(line_no, "unknown route " + f.reverse);
        }
      }
      opts.finish();

      if (f.users < 1) fail(line_no, "flows need users >= 1");
      if (f.size_bytes < 1) fail(line_no, "flows need size >= 1");
      if (f.request_packets < 1 || f.response_packets < 1) {
        fail(line_no, "request/response need at least one packet");
      }
      if (f.think_mean < 0.0) fail(line_no, "think must be non-negative");
      if (f.start < 0.0) fail(line_no, "start must be non-negative");
      if (f.deadline < 0.0) fail(line_no, "deadline must be non-negative");
      if (f.rto < 0.0) fail(line_no, "rto must be non-negative");
      if (f.rto_cap < 0.0) fail(line_no, "rto_cap must be non-negative");
      if (f.throttle_tokens < 0.0) {
        fail(line_no, "throttle must be non-negative");
      }
      if (f.throttle_tokens > 0.0 && f.throttle_ratio <= 0.0) {
        fail(line_no, "throttle_ratio must be positive when throttling");
      }
      if (f.max_retries > 0 && f.rto <= 0.0) {
        fail(line_no, "retries need a positive rto");
      }
      if (f.backoff < 1.0) fail(line_no, "backoff must be >= 1");
      if (f.reverse.empty()) {
        // Responses return over the auto-computed shortest path back, which
        // only exists for routed (from=/to=) forward routes.
        if (route->from.empty()) {
          fail(line_no,
               "flows over an explicit route need reverse=<route>");
        }
        if (path_links(scenario, graph, route->to, route->from).empty()) {
          fail(line_no, "no path from " + route->to + " to " + route->from +
                            " for the response direction");
        }
      }
      scenario.flows.push_back(std::move(f));
      lines.flows.push_back(line_no);
    } else if (kind == "run") {
      if (saw_run) fail(line_no, "duplicate run directive");
      saw_run = true;
      Options opts = options(d, 1);
      scenario.run.until = opts.number("until");
      scenario.run.warmup = opts.number_or("warmup", 0.0);
      scenario.run.seed = opts.integer_or("seed", 1, 0, kMaxExactInteger);
      opts.finish();
      if (scenario.run.warmup < 0.0) {
        fail(line_no, "warmup must be non-negative");
      }
      if (scenario.run.until <= scenario.run.warmup) {
        fail(line_no, "run horizon must exceed the warmup");
      }
    } else {
      fail(line_no, "unknown directive " + kind);
    }
  });
  if (scenario.links.empty()) {
    throw std::invalid_argument("scenario defines no links");
  }
  if (!saw_run) throw std::invalid_argument("scenario has no run directive");
  if (scenario.sources.empty() && scenario.flows.empty()) {
    throw std::invalid_argument("scenario defines no sources");
  }
  check_classes(scenario, graph, lines);
  return scenario;
}

namespace {

// The whole simulation state of one scenario run. Field order fixes the
// destruction sequence: sources and workloads go before the Network and
// Simulator they reference.
struct Simulation {
  explicit Simulation(std::uint64_t seed) : master(seed), net(sim) {}

  Simulator sim;
  PacketIdAllocator ids;
  FlowIdAllocator flow_ids;
  Rng master;
  Network net;

  std::map<std::string, NodeId> node_ids;
  std::map<std::string, LinkId> link_ids;
  std::uint32_t max_classes = 1;
  std::uint64_t total_exits = 0;
  // (route index, class) -> samples of end-to-end queueing delay.
  std::vector<std::vector<SampleSet>> samples;
  // RouteId -> workloads whose forward or reverse route it is.
  std::vector<std::vector<RpcWorkload*>> flow_dispatch;
  std::map<std::string, RouteId> route_ids;
  std::vector<std::pair<RouteId, RouteId>> flow_routes;
  std::vector<std::unique_ptr<RenewalSource>> renewals;
  std::vector<std::unique_ptr<ClassMixSource>> mixes;
  std::vector<std::unique_ptr<CbrFlowSource>> cbrs;
  std::vector<std::unique_ptr<RpcWorkload>> workloads;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<ControlInjector> control;
};

// Builds the network, routes, sources, workloads and plans of `scenario`,
// and starts every source and workload.
void build_simulation(Simulation& run, const Scenario& scenario,
                      const ScenarioOptions& options, double warmup) {
  for (const auto& name : scenario.nodes) {
    run.node_ids[name] = run.net.add_node(name);
  }

  for (const auto& link : scenario.links) {
    SchedulerConfig sc;
    sc.sdp = link.sdp;
    sc.link_capacity = link.capacity;
    sc.burst = link.burst;
    const LinkId id =
        link.from.empty()
            ? run.net.add_link(link.kind, sc, link.capacity, link.name)
            : run.net.add_edge(run.node_ids.at(link.from),
                               run.node_ids.at(link.to), link.kind, sc,
                               link.capacity, link.name);
    if (link.buffer > 0) run.net.make_lossy(id, link.buffer);
    run.link_ids[link.name] = id;
    run.max_classes = std::max(
        run.max_classes, static_cast<std::uint32_t>(link.sdp.size()));
  }

  run.samples.assign(scenario.routes.size(),
                     std::vector<SampleSet>(run.max_classes));

  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    const auto handler = [&run, warmup, r](const Packet& p, SimTime now) {
      ++run.total_exits;
      if (now >= warmup && p.cls < run.max_classes) {
        run.samples[r][p.cls].add(p.cum_queueing);
      }
      for (RpcWorkload* wl : run.flow_dispatch[p.route]) {
        wl->on_route_exit(p, now);
      }
    };
    if (route.from.empty()) {
      std::vector<LinkId> path;
      for (const auto& name : route.links) {
        path.push_back(run.link_ids.at(name));
      }
      run.route_ids[route.name] = run.net.add_route(path, handler);
    } else {
      run.route_ids[route.name] = run.net.add_route_between(
          run.node_ids.at(route.from), run.node_ids.at(route.to), handler);
    }
  }

  // Reverse routes for flows without an explicit reverse= (one per forward
  // route, shared between workloads). Their exits count toward total_exits
  // but carry no per-route stats row.
  const auto reverse_handler = [&run](const Packet& p, SimTime now) {
    ++run.total_exits;
    for (RpcWorkload* wl : run.flow_dispatch[p.route]) {
      wl->on_route_exit(p, now);
    }
  };
  std::map<std::string, RouteId> auto_reverse;
  for (const auto& f : scenario.flows) {
    const RouteId forward = run.route_ids.at(f.route);
    RouteId reverse;
    if (!f.reverse.empty()) {
      reverse = run.route_ids.at(f.reverse);
    } else {
      const auto it = auto_reverse.find(f.route);
      if (it != auto_reverse.end()) {
        reverse = it->second;
      } else {
        const ScenarioRoute* route = find_route(scenario, f.route);
        PDS_REQUIRE(route != nullptr && !route->from.empty());
        reverse = run.net.add_route_between(run.node_ids.at(route->to),
                                            run.node_ids.at(route->from),
                                            reverse_handler);
        auto_reverse.emplace(f.route, reverse);
      }
    }
    run.flow_routes.emplace_back(forward, reverse);
  }

  const auto make_gaps = [](const ScenarioSource& src) {
    return src.pareto_alpha > 0.0 ? pareto_gaps(src.pareto_alpha, src.gap)
                                  : exponential_gaps(src.gap);
  };

  // Rng split order: every source in file order, then every workload in
  // file order — adding flows to a scenario never perturbs the packet
  // streams of its existing sources.
  for (const auto& src : scenario.sources) {
    const RouteId route = run.route_ids.at(src.route);
    Network& net = run.net;
    const auto handler = [&net, route](Packet p) {
      net.inject(std::move(p), route);
    };
    switch (src.kind) {
      case ScenarioSourceKind::kRenewal:
        run.renewals.push_back(std::make_unique<RenewalSource>(
            run.sim, run.ids, src.cls, make_gaps(src),
            fixed_size(src.size_bytes), run.master.split(), handler));
        run.renewals.back()->start(src.start);
        break;
      case ScenarioSourceKind::kMix:
        run.mixes.push_back(std::make_unique<ClassMixSource>(
            run.sim, run.ids, src.fractions, make_gaps(src),
            fixed_size(src.size_bytes), run.master.split(), handler));
        run.mixes.back()->start(src.start);
        break;
      case ScenarioSourceKind::kCbr:
        run.cbrs.push_back(std::make_unique<CbrFlowSource>(
            run.sim, run.ids, src.cls, kNoFlow - 1, src.count, src.size_bytes,
            src.interval, handler));
        run.cbrs.back()->start(src.start);
        break;
    }
  }

  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const auto& f = scenario.flows[i];
    RpcConfig rc;
    rc.cls = f.cls;
    rc.users = options.users.value_or(f.users);
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
    run.workloads.push_back(std::make_unique<RpcWorkload>(
        run.sim, run.net, run.ids, run.flow_ids, run.flow_routes[i].first,
        run.flow_routes[i].second, rc, run.master.split()));
    run.workloads.back()->set_warmup(warmup);
  }
  run.flow_dispatch.assign(run.net.num_routes(), {});
  for (std::size_t i = 0; i < run.workloads.size(); ++i) {
    run.flow_dispatch[run.flow_routes[i].first].push_back(
        run.workloads[i].get());
    if (run.flow_routes[i].second != run.flow_routes[i].first) {
      run.flow_dispatch[run.flow_routes[i].second].push_back(
          run.workloads[i].get());
    }
  }
  for (std::size_t i = 0; i < run.workloads.size(); ++i) {
    run.workloads[i]->start(scenario.flows[i].start);
  }

  if (!options.fault_plan.empty()) {
    run.injector = std::make_unique<FaultInjector>(
        run.sim, parse_fault_plan(options.fault_plan));
    attach_network(*run.injector, run.net);
    run.injector->arm();
  }
  if (!options.control_plan.empty()) {
    run.control = std::make_unique<ControlInjector>(
        run.sim, parse_control_plan(options.control_plan));
    attach_network(*run.control, run.net);
    run.control->arm();
  }
}

// Stops the open-loop renewal and mix sources once the horizon is reached.
void stop_sources(Simulation& run) {
  for (auto& src : run.renewals) src->stop();
  for (auto& src : run.mixes) src->stop();
}

void fill_report(ScenarioReport& report, const Scenario& scenario,
                 const Simulation& run) {
  report.total_exits = run.total_exits;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    for (ClassId c = 0; c < run.max_classes; ++c) {
      const auto& set = run.samples[r][c];
      if (set.empty()) continue;
      report.route_stats.push_back(ScenarioReport::RouteClassStats{
          scenario.routes[r].name, c, set.count(), set.mean(),
          set.percentile(95.0)});
    }
  }
  const Network& net = run.net;
  for (const auto& link : scenario.links) {
    const LinkId id = run.link_ids.at(link.name);
    ScenarioReport::LinkStats ls;
    ls.link = link.name;
    ls.sched = to_string(link.kind);
    ls.utilization = net.utilization(id);
    ls.packets_sent = net.link(id).packets_sent();
    ls.fault_drops = net.link(id).fault_drops();
    if (const LossyLink* lossy = net.lossy(id)) {
      ls.burst_drops = lossy->burst_drops();
      for (ClassId c = 0; c < net.link(id).scheduler().num_classes(); ++c) {
        ls.buffer_drops += lossy->drops(c);
      }
    }
    ls.control_drops = net.link(id).drain_drops() + net.link(id).shed_drops();
    report.fault_drops += ls.fault_drops;
    report.shed_drops += net.link(id).shed_drops();
    report.drain_drops += net.link(id).drain_drops();
    report.link_stats.push_back(std::move(ls));
  }
  for (std::size_t i = 0; i < run.workloads.size(); ++i) {
    const auto& st = run.workloads[i]->stats();
    ScenarioReport::FlowStats fs;
    fs.route = scenario.flows[i].route;
    fs.cls = scenario.flows[i].cls;
    fs.users = run.workloads[i]->config().users;
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
  }
  if (run.injector) {
    report.faulted = true;
    report.fault_episodes_scheduled = run.injector->scheduled_episodes();
    report.fault_episodes = run.injector->episodes_completed();
  }
  if (run.control) {
    report.controlled = true;
    report.control_episodes_scheduled = run.control->scheduled_episodes();
    report.control_episodes = run.control->episodes_completed();
    report.control_retunes = run.control->retunes_applied();
    report.control_swaps = run.control->swaps_applied();
    report.control_class_changes = run.control->class_changes_applied();
    report.control_sheds = run.control->sheds_applied();
  }
}

}  // namespace

ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioOptions& options) {
  PDS_CHECK(options.horizon_scale > 0.0,
            "horizon scale must be positive");
  const double until = scenario.run.until * options.horizon_scale;
  const double warmup = scenario.run.warmup * options.horizon_scale;

  Simulation run(options.seed.value_or(scenario.run.seed));
  build_simulation(run, scenario, options, warmup);

  MetricsRegistry registry;
  std::unique_ptr<MetricsSnapshotWriter> metrics;
  if (!options.metrics_out.empty()) {
    PDS_CHECK(options.metrics_window > 0.0,
              "metrics window must be positive");
    // Handles resolved once; the refresh below runs every window.
    struct LinkGauges {
      LinkId id;
      Gauge* util;
      Gauge* sent;
    };
    struct FlowGauges {
      Gauge* completed;
      Gauge* failed;
      Gauge* retries;
      Gauge* waiting;
      Gauge* slo;
    };
    std::vector<LinkGauges> links;
    for (const auto& [name, id] : run.link_ids) {
      links.push_back({id, &registry.gauge("link." + name + ".util"),
                       &registry.gauge("link." + name + ".sent")});
    }
    std::vector<FlowGauges> flows;
    for (std::size_t i = 0; i < run.workloads.size(); ++i) {
      const std::string p = "flows.f" + std::to_string(i) + ".";
      flows.push_back({&registry.gauge(p + "completed"),
                       &registry.gauge(p + "failed"),
                       &registry.gauge(p + "retries"),
                       &registry.gauge(p + "waiting"),
                       &registry.gauge(p + "slo")});
    }
    metrics = std::make_unique<MetricsSnapshotWriter>(
        run.sim, registry, options.metrics_out, options.metrics_window,
        [&run, links = std::move(links), flows = std::move(flows)](SimTime) {
          for (const LinkGauges& l : links) {
            l.util->set(run.net.utilization(l.id));
            l.sent->set(
                static_cast<double>(run.net.link(l.id).packets_sent()));
          }
          for (std::size_t i = 0; i < flows.size(); ++i) {
            const auto& st = run.workloads[i]->stats();
            flows[i].completed->set(static_cast<double>(st.completed));
            flows[i].failed->set(static_cast<double>(st.failed));
            flows[i].retries->set(static_cast<double>(st.retries));
            flows[i].waiting->set(
                static_cast<double>(run.workloads[i]->waiting_users()));
            flows[i].slo->set(st.slo_attainment());
          }
        });
  }

  if (options.max_events > 0 || options.max_wall_seconds > 0.0) {
    run.sim.set_budget(options.max_events, options.max_wall_seconds);
  }

  run.sim.run_until(until);
  stop_sources(run);

  ScenarioReport report;
  if (metrics) {
    metrics->flush();
    report.metrics_snapshots = metrics->snapshots_written();
  }
  fill_report(report, scenario, run);
  return report;
}

ScenarioReport run_scenario(const std::string& text,
                            const ScenarioOptions& options) {
  return run_scenario(parse_scenario(text), options);
}

ScenarioReport run_scenario(const std::string& text,
                            std::optional<std::uint64_t> seed_override) {
  ScenarioOptions options;
  options.seed = seed_override;
  return run_scenario(text, options);
}

RunReport scenario_run_report(const Scenario& scenario,
                              const ScenarioReport& report,
                              std::uint64_t seed_used) {
  RunReport doc("scenario");
  doc.set_section("scenario",
                  Json::object()
                      .set("nodes", scenario.nodes.size())
                      .set("links", scenario.links.size())
                      .set("routes", scenario.routes.size())
                      .set("sources", scenario.sources.size())
                      .set("flows", scenario.flows.size())
                      .set("until", scenario.run.until)
                      .set("warmup", scenario.run.warmup)
                      .set("seed", seed_used)
                      .set("total_exits", report.total_exits));
  Json routes = Json::array();
  for (const auto& rs : report.route_stats) {
    routes.push(Json::object()
                    .set("route", rs.route)
                    .set("class", paper_class_label(rs.cls))
                    .set("packets", rs.packets)
                    .set("mean_delay", rs.mean_delay)
                    .set("p95_delay", rs.p95_delay));
  }
  doc.set_section("routes", std::move(routes));
  Json links = Json::array();
  for (const auto& ls : report.link_stats) {
    links.push(Json::object()
                   .set("link", ls.link)
                   .set("sched", ls.sched)
                   .set("utilization", ls.utilization)
                   .set("packets_sent", ls.packets_sent)
                   .set("fault_drops", ls.fault_drops)
                   .set("burst_drops", ls.burst_drops)
                   .set("buffer_drops", ls.buffer_drops)
                   .set("control_drops", ls.control_drops));
  }
  doc.set_section("links", std::move(links));
  Json flows = Json::array();
  for (const auto& fs : report.flow_stats) {
    flows.push(Json::object()
                   .set("route", fs.route)
                   .set("class", paper_class_label(fs.cls))
                   .set("users", fs.users)
                   .set("issued", fs.issued)
                   .set("completed", fs.completed)
                   .set("failed", fs.failed)
                   .set("retries", fs.retries)
                   .set("throttled", fs.throttled)
                   .set("fct_mean", fs.fct_mean)
                   .set("fct_p50", fs.fct_p50)
                   .set("fct_p95", fs.fct_p95)
                   .set("fct_p99", fs.fct_p99)
                   .set("slo_attainment", fs.slo_attainment)
                   .set("deadline", fs.deadline));
  }
  doc.set_section("flows", std::move(flows));
  if (report.faulted) {
    doc.set_section("faults",
                    Json::object()
                        .set("scheduled", report.fault_episodes_scheduled)
                        .set("completed", report.fault_episodes)
                        .set("drops", report.fault_drops));
  }
  if (report.controlled) {
    doc.set_section("control",
                    Json::object()
                        .set("scheduled", report.control_episodes_scheduled)
                        .set("completed", report.control_episodes)
                        .set("retunes", report.control_retunes)
                        .set("swaps", report.control_swaps)
                        .set("class_changes", report.control_class_changes)
                        .set("sheds", report.control_sheds)
                        .set("shed_drops", report.shed_drops)
                        .set("drain_drops", report.drain_drops));
  }
  return doc;
}

}  // namespace pds
