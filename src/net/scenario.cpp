#include "net/scenario.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "dsim/shard.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/flows.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/pdes_trace.hpp"
#include "obs/report.hpp"
#include "sched/scan.hpp"
#include "sched/scheduler.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("scenario line " + std::to_string(line_no) +
                              ": " + msg);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // trailing comment
    tokens.push_back(tok);
  }
  return tokens;
}

// key=value options after the positional tokens.
class Options {
 public:
  Options(const std::vector<std::string>& tokens, std::size_t first,
          std::size_t line_no)
      : line_no_(line_no) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto& tok = tokens[i];
      const auto eq = tok.find('=');
      if (eq == std::string::npos) {
        flags_.push_back(tok);
      } else {
        values_[tok.substr(0, eq)] = tok.substr(eq + 1);
      }
    }
  }

  bool flag(const std::string& name) {
    for (auto it = flags_.begin(); it != flags_.end(); ++it) {
      if (*it == name) {
        flags_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::optional<std::string> take(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    std::string v = it->second;
    values_.erase(it);
    return v;
  }

  std::string require(const std::string& key) {
    auto v = take(key);
    if (!v) fail(line_no_, "missing required option " + key + "=...");
    return *v;
  }

  double number(const std::string& key) {
    return to_number(require(key));
  }

  double number_or(const std::string& key, double def) {
    const auto v = take(key);
    return v ? to_number(*v) : def;
  }

  std::vector<double> list(const std::string& key) {
    const std::string raw = require(key);
    std::vector<double> out;
    std::size_t start = 0;
    while (start <= raw.size()) {
      const auto comma = raw.find(',', start);
      const auto item = raw.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (item.empty()) fail(line_no_, "empty element in " + key);
      out.push_back(to_number(item));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return out;
  }

  void finish() const {
    if (!values_.empty()) {
      fail(line_no_, "unknown option " + values_.begin()->first);
    }
    if (!flags_.empty()) {
      fail(line_no_, "unknown flag " + flags_.front());
    }
  }

 private:
  double to_number(const std::string& raw) const {
    try {
      std::size_t pos = 0;
      const double v = std::stod(raw, &pos);
      if (pos != raw.size()) fail(line_no_, "malformed number: " + raw);
      return v;
    } catch (const std::invalid_argument&) {
      fail(line_no_, "malformed number: " + raw);
    }
  }

  std::size_t line_no_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
};

// Parse-time view of the declared graph, for routed-route validation.
struct ParseGraph {
  std::map<std::string, NodeId> node_index;
  std::vector<GraphEdge> edges;  // link = index into scenario.links
  std::set<std::string> link_names;
  std::set<std::string> route_names;
};

// Positive-integer option with a clean per-line error.
std::uint32_t integer(Options& opts, const std::string& key,
                      std::size_t line_no) {
  const double v = opts.number(key);
  if (v < 0.0 || v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    fail(line_no, key + " must be a non-negative integer");
  }
  return static_cast<std::uint32_t>(v);
}

// Optional burst=<k> option: packets drained per scheduler decision.
// Defaults to 1 (classic single-packet service, byte-identical traces).
std::uint32_t parse_burst(Options& opts, std::size_t line_no) {
  const double v = opts.number_or("burst", 1.0);
  if (v < 1.0 || v > static_cast<double>(kMaxBurst) ||
      v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    fail(line_no,
         "burst must be an integer in [1, " + std::to_string(kMaxBurst) + "]");
  }
  return static_cast<std::uint32_t>(v);
}

// Optional buffer=<pkts> option: finite drop-tail buffer. Defaults to 0
// (the paper's lossless link).
std::uint64_t parse_buffer(Options& opts, std::size_t line_no) {
  const double v = opts.number_or("buffer", 0.0);
  if (v < 0.0 || v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    fail(line_no, "buffer must be a non-negative packet count");
  }
  return static_cast<std::uint64_t>(v);
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
  if (!graph.link_names.insert(link.name).second) {
    fail(line_no, "duplicate link name " + link.name);
  }
  if (!link.from.empty()) {
    graph.edges.push_back(
        GraphEdge{static_cast<std::uint32_t>(scenario.links.size()),
                  graph.node_index.at(link.from),
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
                     const std::vector<std::string>& tokens,
                     std::size_t line_no) {
  if (tokens.size() < 2) fail(line_no, "topology needs a kind");
  const std::string& kind = tokens[1];
  Options opts(tokens, 2, line_no);
  TopologySpec spec;
  if (kind == "line" || kind == "ring") {
    const std::uint32_t n = integer(opts, "n", line_no);
    if (kind == "line") {
      if (n < 2) fail(line_no, "line needs n >= 2");
      spec = make_line_topology(n);
    } else {
      if (n < 3) fail(line_no, "ring needs n >= 3");
      spec = make_ring_topology(n);
    }
  } else if (kind == "fat_tree") {
    const std::uint32_t k = integer(opts, "k", line_no);
    if (k < 2 || k % 2 != 0) fail(line_no, "fat_tree needs an even k >= 2");
    spec = make_fat_tree_topology(k);
  } else if (kind == "two_tier") {
    const std::uint32_t cores = integer(opts, "cores", line_no);
    const std::uint32_t pops = integer(opts, "pops", line_no);
    if (cores < 1 || pops < 1) {
      fail(line_no, "two_tier needs cores >= 1 and pops >= 1");
    }
    spec = make_two_tier_topology(cores, pops);
  } else {
    fail(line_no, "unknown topology kind " + kind);
  }

  const double capacity = opts.number("capacity");
  const SchedulerKind sched =
      scheduler_kind_from_string(opts.require("sched"));
  const std::vector<double> sdp = opts.list("sdp");
  const std::uint32_t burst = parse_burst(opts, line_no);
  const std::uint64_t buffer = parse_buffer(opts, line_no);
  const std::string prefix = opts.take("prefix").value_or("");
  opts.finish();

  for (const auto& name : spec.nodes) {
    add_scenario_node(scenario, graph, prefix + name, line_no);
  }
  for (const auto& [a, b] : spec.edges) {
    for (int dir = 0; dir < 2; ++dir) {
      ScenarioLink link;
      link.from = prefix + (dir == 0 ? a : b);
      link.to = prefix + (dir == 0 ? b : a);
      link.name = link.from + ">" + link.to;
      link.capacity = capacity;
      link.kind = sched;
      link.sdp = sdp;
      link.burst = burst;
      link.buffer = buffer;
      add_scenario_link(scenario, graph, std::move(link), line_no);
    }
  }
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  ParseGraph graph;
  bool saw_run = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const auto& kind = tokens[0];

    if (kind == "node") {
      if (tokens.size() < 2) fail(line_no, "node needs a name");
      Options opts(tokens, 2, line_no);
      opts.finish();
      add_scenario_node(scenario, graph, tokens[1], line_no);
    } else if (kind == "edge") {
      if (tokens.size() < 2) fail(line_no, "edge needs a name");
      ScenarioLink link;
      link.name = tokens[1];
      Options opts(tokens, 2, line_no);
      link.from = opts.require("from");
      link.to = opts.require("to");
      require_node(graph, link.from, line_no);
      require_node(graph, link.to, line_no);
      if (link.from == link.to) fail(line_no, "edge endpoints must differ");
      link.capacity = opts.number("capacity");
      link.kind = scheduler_kind_from_string(opts.require("sched"));
      link.sdp = opts.list("sdp");
      link.burst = parse_burst(opts, line_no);
      link.buffer = parse_buffer(opts, line_no);
      opts.finish();
      add_scenario_link(scenario, graph, std::move(link), line_no);
    } else if (kind == "topology") {
      expand_topology(scenario, graph, tokens, line_no);
    } else if (kind == "link") {
      if (tokens.size() < 2) fail(line_no, "link needs a name");
      ScenarioLink link;
      link.name = tokens[1];
      Options opts(tokens, 2, line_no);
      link.capacity = opts.number("capacity");
      link.kind = scheduler_kind_from_string(opts.require("sched"));
      link.sdp = opts.list("sdp");
      link.burst = parse_burst(opts, line_no);
      link.buffer = parse_buffer(opts, line_no);
      opts.finish();
      add_scenario_link(scenario, graph, std::move(link), line_no);
    } else if (kind == "route") {
      if (tokens.size() < 3) fail(line_no, "route needs a name and links");
      ScenarioRoute route;
      route.name = tokens[1];
      if (!graph.route_names.insert(route.name).second) {
        fail(line_no, "duplicate route name " + route.name);
      }
      const bool routed = tokens[2].find('=') != std::string::npos;
      if (routed) {
        Options opts(tokens, 2, line_no);
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
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          if (!graph.link_names.count(tokens[i])) {
            fail(line_no, "unknown link " + tokens[i]);
          }
          route.links.push_back(tokens[i]);
        }
      }
      scenario.routes.push_back(std::move(route));
    } else if (kind == "source") {
      if (tokens.size() < 3) fail(line_no, "source needs a kind and route");
      ScenarioSource src;
      const auto& sk = tokens[1];
      if (sk == "renewal") {
        src.kind = ScenarioSourceKind::kRenewal;
      } else if (sk == "mix") {
        src.kind = ScenarioSourceKind::kMix;
      } else if (sk == "cbr") {
        src.kind = ScenarioSourceKind::kCbr;
      } else {
        fail(line_no, "unknown source kind " + sk);
      }
      src.route = tokens[2];
      if (!find_route(scenario, src.route)) {
        fail(line_no, "unknown route " + src.route);
      }

      Options opts(tokens, 3, line_no);
      src.start = opts.number_or("start", 0.0);
      src.size_bytes =
          static_cast<std::uint32_t>(opts.number("size"));
      switch (src.kind) {
        case ScenarioSourceKind::kRenewal:
          src.cls = static_cast<ClassId>(opts.number("class"));
          src.gap = opts.number("gap");
          src.pareto_alpha =
              opts.flag("poisson") ? 0.0 : opts.number_or("pareto", 1.9);
          break;
        case ScenarioSourceKind::kMix:
          src.fractions = opts.list("fractions");
          src.gap = opts.number("gap");
          src.pareto_alpha =
              opts.flag("poisson") ? 0.0 : opts.number_or("pareto", 1.9);
          break;
        case ScenarioSourceKind::kCbr:
          src.cls = static_cast<ClassId>(opts.number("class"));
          src.count = static_cast<std::uint32_t>(opts.number("count"));
          src.interval = opts.number("interval");
          break;
      }
      opts.finish();
      scenario.sources.push_back(std::move(src));
    } else if (kind == "flows") {
      if (tokens.size() < 2) fail(line_no, "flows need a route");
      ScenarioFlows f;
      f.route = tokens[1];
      const ScenarioRoute* route = find_route(scenario, f.route);
      if (!route) fail(line_no, "unknown route " + f.route);

      Options opts(tokens, 2, line_no);
      f.cls = static_cast<ClassId>(integer(opts, "class", line_no));
      f.users = integer(opts, "users", line_no);
      f.size_bytes = integer(opts, "size", line_no);
      f.think_mean = opts.number("think");
      f.request_packets =
          static_cast<std::uint32_t>(opts.number_or("request", 1.0));
      f.response_packets = static_cast<std::uint32_t>(
          opts.number_or("response", f.request_packets));
      f.deadline = opts.number_or("deadline", 0.0);
      f.rto = opts.number_or("rto", 0.0);
      f.max_retries =
          static_cast<std::uint32_t>(opts.number_or("retries", 0.0));
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
        const auto back = shortest_path_links(
            static_cast<NodeId>(scenario.nodes.size()), graph.edges,
            graph.node_index.at(route->to), graph.node_index.at(route->from));
        if (back.empty()) {
          fail(line_no, "no path from " + route->to + " to " + route->from +
                            " for the response direction");
        }
      }
      scenario.flows.push_back(std::move(f));
    } else if (kind == "run") {
      if (saw_run) fail(line_no, "duplicate run directive");
      saw_run = true;
      Options opts(tokens, 1, line_no);
      scenario.run.until = opts.number("until");
      scenario.run.warmup = opts.number_or("warmup", 0.0);
      scenario.run.seed =
          static_cast<std::uint64_t>(opts.number_or("seed", 1.0));
      opts.finish();
    } else {
      fail(line_no, "unknown directive " + kind);
    }
  }
  if (scenario.links.empty()) {
    throw std::invalid_argument("scenario defines no links");
  }
  if (!saw_run) throw std::invalid_argument("scenario has no run directive");
  if (scenario.sources.empty() && scenario.flows.empty()) {
    throw std::invalid_argument("scenario defines no sources");
  }
  PDS_CHECK(scenario.run.until > scenario.run.warmup,
            "run horizon must exceed the warmup");
  return scenario;
}

namespace {

// ===========================================================================
// Execution machinery. The serial path and the sharded (--shards) path build
// the simulation through the same Replica/build_replica code so that every
// shard constructs state — and consumes its master Rng — in exactly the
// order the serial run does; that construction-order identity is what makes
// the sharded report byte-identical to the serial one.
// ===========================================================================

// Static sharding plan: the partition, per-route link paths (including the
// auto-created reverse routes, appended in the same order run-time
// construction creates them), exit-handler placement, and the lookahead
// matrix. A pure function of the scenario and the shard count.
struct ScenarioPlan {
  std::uint32_t shards = 1;
  Partition part;
  std::vector<std::vector<LinkId>> route_paths;
  std::vector<std::uint32_t> route_exit;  // shard running each exit handler
  std::vector<SimTime> lookahead;         // shards x shards, flattened
};

ScenarioPlan plan_scenario(const Scenario& scenario, std::uint32_t shards,
                           PartitionMethod method) {
  ScenarioPlan plan;
  plan.shards = shards;

  std::map<std::string, NodeId> node_index;
  for (std::size_t i = 0; i < scenario.nodes.size(); ++i) {
    node_index[scenario.nodes[i]] = static_cast<NodeId>(i);
  }
  std::vector<GraphEdge> edges;
  std::vector<double> capacities(scenario.links.size(), 0.0);
  std::map<std::string, LinkId> link_index;
  for (std::size_t i = 0; i < scenario.links.size(); ++i) {
    const auto& link = scenario.links[i];
    link_index[link.name] = static_cast<LinkId>(i);
    capacities[i] = link.capacity;
    if (!link.from.empty()) {
      edges.push_back(GraphEdge{static_cast<std::uint32_t>(i),
                                node_index.at(link.from),
                                node_index.at(link.to)});
    }
  }

  std::map<std::string, RouteId> route_ids;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    std::vector<LinkId> path;
    if (route.from.empty()) {
      for (const auto& name : route.links) path.push_back(link_index.at(name));
    } else {
      path = shortest_path_links(static_cast<NodeId>(scenario.nodes.size()),
                                 edges, node_index.at(route.from),
                                 node_index.at(route.to));
    }
    PDS_REQUIRE(!path.empty());
    route_ids[route.name] = static_cast<RouteId>(r);
    plan.route_paths.push_back(std::move(path));
  }

  // Auto-created reverse routes get the ids run_scenario's flows loop will
  // assign them (appended past the file routes, one per distinct forward
  // route, in flows order).
  std::map<std::string, RouteId> auto_reverse;
  std::vector<std::pair<RouteId, RouteId>> flow_routes;
  for (const auto& f : scenario.flows) {
    const RouteId forward = route_ids.at(f.route);
    RouteId reverse;
    if (!f.reverse.empty()) {
      reverse = route_ids.at(f.reverse);
    } else {
      const auto it = auto_reverse.find(f.route);
      if (it != auto_reverse.end()) {
        reverse = it->second;
      } else {
        const ScenarioRoute* route = find_route(scenario, f.route);
        PDS_REQUIRE(route != nullptr && !route->from.empty());
        auto back = shortest_path_links(
            static_cast<NodeId>(scenario.nodes.size()), edges,
            node_index.at(route->to), node_index.at(route->from));
        PDS_REQUIRE(!back.empty());
        reverse = static_cast<RouteId>(plan.route_paths.size());
        plan.route_paths.push_back(std::move(back));
        auto_reverse.emplace(f.route, reverse);
      }
    }
    flow_routes.emplace_back(forward, reverse);
  }

  plan.part = partition_topology(
      static_cast<std::uint32_t>(scenario.nodes.size()),
      static_cast<std::uint32_t>(scenario.links.size()), edges, capacities,
      shards, method);

  // Exit handlers run where the last hop is owned — except flow routes,
  // whose exits feed workload state living on shard 0.
  plan.route_exit.resize(plan.route_paths.size());
  for (std::size_t r = 0; r < plan.route_paths.size(); ++r) {
    plan.route_exit[r] = plan.part.link_owner[plan.route_paths[r].back()];
  }
  for (const auto& [fwd, rev] : flow_routes) {
    plan.route_exit[fwd] = 0;
    plan.route_exit[rev] = 0;
  }

  double min_bytes = kSimTimeInfinity;
  for (const auto& src : scenario.sources) {
    min_bytes = std::min(min_bytes, static_cast<double>(src.size_bytes));
  }
  for (const auto& f : scenario.flows) {
    min_bytes = std::min(min_bytes, static_cast<double>(f.size_bytes));
  }
  PDS_CHECK(min_bytes >= 1.0,
            "sharded runs need every source size to be at least one byte");

  plan.lookahead = make_lookahead(shards);
  add_route_lookahead(plan.lookahead, plan.part, plan.route_paths,
                      plan.route_exit, capacities, min_bytes);
  // Workload injections: shard 0 hands request/response packets to the
  // first hop's owner at the current time — zero lookahead, safe because
  // shard 0 never has zero-lookahead in-edges (see net/partition.hpp).
  for (const auto& [fwd, rev] : flow_routes) {
    for (const RouteId r : {fwd, rev}) {
      const std::uint32_t owner =
          plan.part.link_owner[plan.route_paths[r].front()];
      if (owner != 0) {
        add_lookahead_edge(plan.lookahead, shards, 0, owner, 0.0);
      }
    }
  }
  return plan;
}

// One shard's complete simulation state — or the whole simulation when run
// serially. Field order mirrors the old run_scenario local order so the
// destruction sequence is unchanged.
struct Replica {
  explicit Replica(std::uint64_t seed) : master(seed), net(sim) {}

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
  std::vector<bool> renewal_started;
  std::vector<bool> mix_started;
  std::vector<std::unique_ptr<RpcWorkload>> workloads;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<ControlInjector> control;
};

using PublishFn = std::function<void(std::uint32_t, SimTime, Packet&&)>;

// Builds one replica of the scenario. Serial runs pass plan == nullptr and
// get the exact construction sequence run_scenario always had. Sharded runs
// build the identical structure on every shard — same ids, same Rng split
// order — but start a source only on the shard owning its route's first
// link, start workloads only on shard 0, and bind the shard identity so
// cross-cut transmissions publish instead of delivering locally.
void build_replica(Replica& rep, const Scenario& scenario,
                   const ScenarioOptions& options, double warmup,
                   const ScenarioPlan* plan, std::uint32_t self,
                   PublishFn publish) {
  for (const auto& name : scenario.nodes) {
    rep.node_ids[name] = rep.net.add_node(name);
  }

  for (const auto& link : scenario.links) {
    SchedulerConfig sc;
    sc.sdp = link.sdp;
    sc.link_capacity = link.capacity;
    sc.burst = link.burst;
    const LinkId id =
        link.from.empty()
            ? rep.net.add_link(link.kind, sc, link.capacity, link.name)
            : rep.net.add_edge(rep.node_ids.at(link.from),
                               rep.node_ids.at(link.to), link.kind, sc,
                               link.capacity, link.name);
    if (link.buffer > 0) rep.net.make_lossy(id, link.buffer);
    rep.link_ids[link.name] = id;
    rep.max_classes = std::max(
        rep.max_classes, static_cast<std::uint32_t>(link.sdp.size()));
  }

  rep.samples.assign(scenario.routes.size(),
                     std::vector<SampleSet>(rep.max_classes));

  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    const auto handler = [&rep, warmup, r](const Packet& p, SimTime now) {
      ++rep.total_exits;
      if (now >= warmup && p.cls < rep.max_classes) {
        rep.samples[r][p.cls].add(p.cum_queueing);
      }
      for (RpcWorkload* wl : rep.flow_dispatch[p.route]) {
        wl->on_route_exit(p, now);
      }
    };
    if (route.from.empty()) {
      std::vector<LinkId> path;
      for (const auto& name : route.links) {
        path.push_back(rep.link_ids.at(name));
      }
      rep.route_ids[route.name] = rep.net.add_route(path, handler);
    } else {
      rep.route_ids[route.name] = rep.net.add_route_between(
          rep.node_ids.at(route.from), rep.node_ids.at(route.to), handler);
    }
  }

  // Reverse routes for flows without an explicit reverse= (one per forward
  // route, shared between workloads). Their exits count toward total_exits
  // but carry no per-route stats row.
  const auto reverse_handler = [&rep](const Packet& p, SimTime now) {
    ++rep.total_exits;
    for (RpcWorkload* wl : rep.flow_dispatch[p.route]) {
      wl->on_route_exit(p, now);
    }
  };
  std::map<std::string, RouteId> auto_reverse;
  for (const auto& f : scenario.flows) {
    const RouteId forward = rep.route_ids.at(f.route);
    RouteId reverse;
    if (!f.reverse.empty()) {
      reverse = rep.route_ids.at(f.reverse);
    } else {
      const auto it = auto_reverse.find(f.route);
      if (it != auto_reverse.end()) {
        reverse = it->second;
      } else {
        const ScenarioRoute* route = find_route(scenario, f.route);
        PDS_REQUIRE(route != nullptr && !route->from.empty());
        reverse = rep.net.add_route_between(rep.node_ids.at(route->to),
                                            rep.node_ids.at(route->from),
                                            reverse_handler);
        auto_reverse.emplace(f.route, reverse);
      }
    }
    rep.flow_routes.emplace_back(forward, reverse);
  }

  const bool sharded = plan != nullptr && plan->shards > 1;
  if (sharded) {
    PDS_REQUIRE(plan->route_paths.size() == rep.net.num_routes());
    ShardBinding binding;
    binding.self = self;
    binding.link_owner = plan->part.link_owner;
    binding.route_exit_shard = plan->route_exit;
    binding.publish = std::move(publish);
    rep.net.bind_shard(std::move(binding));
  }
  const auto owns_route = [plan, self, sharded](RouteId route) {
    return !sharded ||
           plan->part.link_owner[plan->route_paths[route].front()] == self;
  };

  const auto make_gaps = [](const ScenarioSource& src) {
    return src.pareto_alpha > 0.0 ? pareto_gaps(src.pareto_alpha, src.gap)
                                  : exponential_gaps(src.gap);
  };

  // Rng split order: every source in file order, then every workload in
  // file order — adding flows to a scenario never perturbs the packet
  // streams of its existing sources. Sharded runs construct (and split for)
  // every source on every replica to keep this order, then start only the
  // owned ones.
  for (const auto& src : scenario.sources) {
    const RouteId route = rep.route_ids.at(src.route);
    Network& net = rep.net;
    const auto handler = [&net, route](Packet p) {
      net.inject(std::move(p), route);
    };
    const bool owned = owns_route(route);
    switch (src.kind) {
      case ScenarioSourceKind::kRenewal:
        rep.renewals.push_back(std::make_unique<RenewalSource>(
            rep.sim, rep.ids, src.cls, make_gaps(src),
            fixed_size(src.size_bytes), rep.master.split(), handler));
        rep.renewal_started.push_back(owned);
        if (owned) rep.renewals.back()->start(src.start);
        break;
      case ScenarioSourceKind::kMix:
        rep.mixes.push_back(std::make_unique<ClassMixSource>(
            rep.sim, rep.ids, src.fractions, make_gaps(src),
            fixed_size(src.size_bytes), rep.master.split(), handler));
        rep.mix_started.push_back(owned);
        if (owned) rep.mixes.back()->start(src.start);
        break;
      case ScenarioSourceKind::kCbr:
        rep.cbrs.push_back(std::make_unique<CbrFlowSource>(
            rep.sim, rep.ids, src.cls, kNoFlow - 1, src.count, src.size_bytes,
            src.interval, handler));
        if (owned) rep.cbrs.back()->start(src.start);
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
    rep.workloads.push_back(std::make_unique<RpcWorkload>(
        rep.sim, rep.net, rep.ids, rep.flow_ids, rep.flow_routes[i].first,
        rep.flow_routes[i].second, rc, rep.master.split()));
    rep.workloads.back()->set_warmup(warmup);
  }
  rep.flow_dispatch.assign(rep.net.num_routes(), {});
  for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
    rep.flow_dispatch[rep.flow_routes[i].first].push_back(
        rep.workloads[i].get());
    if (rep.flow_routes[i].second != rep.flow_routes[i].first) {
      rep.flow_dispatch[rep.flow_routes[i].second].push_back(
          rep.workloads[i].get());
    }
  }
  // Workloads (and their closed-loop state machines) live on shard 0.
  if (!sharded || self == 0) {
    for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
      rep.workloads[i]->start(scenario.flows[i].start);
    }
  }

  // Fault and control plans are clock-driven, so arming them on every
  // replica makes the episodes fire identically everywhere; each episode
  // only has observable effect on the links the replica owns (the others
  // carry no traffic).
  if (!options.fault_plan.empty()) {
    rep.injector = std::make_unique<FaultInjector>(
        rep.sim, parse_fault_plan(options.fault_plan));
    attach_network(*rep.injector, rep.net);
    rep.injector->arm();
  }
  if (!options.control_plan.empty()) {
    rep.control = std::make_unique<ControlInjector>(
        rep.sim, parse_control_plan(options.control_plan));
    attach_network(*rep.control, rep.net);
    rep.control->arm();
  }
}

// Stops the open-loop sources that were started on this replica (the serial
// path's post-run stop, applied per shard).
void stop_sources(Replica& rep) {
  for (std::size_t i = 0; i < rep.renewals.size(); ++i) {
    if (rep.renewal_started[i]) rep.renewals[i]->stop();
  }
  for (std::size_t i = 0; i < rep.mixes.size(); ++i) {
    if (rep.mix_started[i]) rep.mixes[i]->stop();
  }
}

// Assembles the ScenarioReport from the replica set. Serial runs pass
// plan == nullptr and a single replica; sharded runs read each figure from
// the one shard where it accumulated (exit shard for route stats, owning
// shard for link stats, shard 0 for workloads and injector counters), so
// the assembled report is the serial one, field for field.
void fill_report(ScenarioReport& report, const Scenario& scenario,
                 const ScenarioPlan* plan, Replica* const* replicas) {
  Replica& home = *replicas[0];
  const std::uint32_t shards = plan != nullptr ? plan->shards : 1;
  for (std::uint32_t s = 0; s < shards; ++s) {
    report.total_exits += replicas[s]->total_exits;
  }

  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    Replica& ex = plan != nullptr ? *replicas[plan->route_exit[r]] : home;
    for (ClassId c = 0; c < home.max_classes; ++c) {
      const auto& set = ex.samples[r][c];
      if (set.empty()) continue;
      report.route_stats.push_back(ScenarioReport::RouteClassStats{
          scenario.routes[r].name, c, set.count(), set.mean(),
          set.percentile(95.0)});
    }
  }
  for (const auto& link : scenario.links) {
    const LinkId id = home.link_ids.at(link.name);
    const Network& net =
        plan != nullptr ? replicas[plan->part.link_owner[id]]->net : home.net;
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
  for (std::size_t i = 0; i < home.workloads.size(); ++i) {
    const auto& st = home.workloads[i]->stats();
    ScenarioReport::FlowStats fs;
    fs.route = scenario.flows[i].route;
    fs.cls = scenario.flows[i].cls;
    fs.users = home.workloads[i]->config().users;
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
  if (home.injector) {
    report.faulted = true;
    report.fault_episodes_scheduled = home.injector->scheduled_episodes();
    report.fault_episodes = home.injector->episodes_completed();
  }
  if (home.control) {
    report.controlled = true;
    report.control_episodes_scheduled = home.control->scheduled_episodes();
    report.control_episodes = home.control->episodes_completed();
    report.control_retunes = home.control->retunes_applied();
    report.control_swaps = home.control->swaps_applied();
    report.control_class_changes = home.control->class_changes_applied();
    report.control_sheds = home.control->sheds_applied();
  }
}

// A packet staged for delivery on a shard, tagged with its deterministic
// merge key: (timestamp, source shard, per-channel sequence).
struct RemoteMsg {
  SimTime ts = 0.0;
  std::uint32_t src = 0;
  std::uint64_t seq = 0;
  Packet p;
};

bool remote_before(const RemoteMsg& a, const RemoteMsg& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

// Per-shard runtime state the engine hooks close over: the replica plus the
// staged inbox. `pos` marks the applied prefix; the tail past it is sorted
// at the top of every window (new splices land unsorted at the back).
struct ShardRuntime {
  Replica* rep = nullptr;
  std::vector<RemoteMsg> inbox;
  std::size_t pos = 0;
};

void sort_inbox_tail(ShardRuntime& rt) {
  if (rt.pos == rt.inbox.size()) {
    rt.inbox.clear();
    rt.pos = 0;
  }
  std::sort(rt.inbox.begin() + static_cast<std::ptrdiff_t>(rt.pos),
            rt.inbox.end(), remote_before);
}

// One conservative window: interleave staged messages (in merge order) with
// local events, everything strictly below `bound`. A message at timestamp t
// applies after every local event below t — its serial counterpart is the
// departure event of a transmission that completed at exactly t.
std::uint64_t run_shard_window(ShardRuntime& rt, SimTime bound) {
  Replica& rep = *rt.rep;
  sort_inbox_tail(rt);
  const std::uint64_t before = rep.sim.executed_events();
  std::uint64_t applied = 0;
  while (rt.pos < rt.inbox.size() && rt.inbox[rt.pos].ts < bound) {
    RemoteMsg& m = rt.inbox[rt.pos];
    rep.sim.run_before(m.ts);
    rep.sim.advance_to(m.ts);
    rep.net.apply_remote(std::move(m.p));
    ++rt.pos;
    ++applied;
  }
  rep.sim.run_before(bound);
  return applied + (rep.sim.executed_events() - before);
}

// Final phase: apply messages up to and including the horizon (discarding
// later ones — their serial counterparts never executed) and drain local
// events through the horizon inclusively, leaving the clock there.
std::uint64_t finish_shard(ShardRuntime& rt, SimTime horizon) {
  Replica& rep = *rt.rep;
  sort_inbox_tail(rt);
  const std::uint64_t before = rep.sim.executed_events();
  std::uint64_t applied = 0;
  while (rt.pos < rt.inbox.size() && rt.inbox[rt.pos].ts <= horizon) {
    RemoteMsg& m = rt.inbox[rt.pos];
    rep.sim.run_before(m.ts);
    rep.sim.advance_to(m.ts);
    rep.net.apply_remote(std::move(m.p));
    ++rt.pos;
    ++applied;
  }
  rt.pos = rt.inbox.size();
  rep.sim.run_until(horizon);
  return applied + (rep.sim.executed_events() - before);
}

// Diagnostic dequeue sweep over one shard's owned links, batched through
// scan::scan_links: how many owned links are backlogged right now (and what
// each would dequeue). Coordinator-side, between barriers; feeds the
// per-round PdesTrace spans and never touches simulation state.
struct BacklogSweep {
  std::vector<LinkId> links;          // owned links, ascending id
  std::vector<scan::Heads> heads;     // scratch
  std::vector<const double*> sdp;     // scratch
  std::vector<std::int32_t> winners;  // scratch
};

std::uint32_t sweep_backlog(Replica& rep, BacklogSweep& sweep) {
  sweep.heads.clear();
  sweep.sdp.clear();
  for (const LinkId id : sweep.links) {
    const auto* cb = dynamic_cast<const ClassBasedScheduler*>(
        &rep.net.link(id).scheduler());
    if (cb == nullptr) continue;
    sweep.heads.push_back(cb->heads());
    sweep.sdp.push_back(cb->weight_lanes().data());
  }
  if (sweep.heads.empty()) return 0;
  sweep.winners.resize(sweep.heads.size());
  return scan::scan_links(sweep.heads.data(), sweep.sdp.data(), rep.sim.now(),
                          static_cast<std::uint32_t>(sweep.heads.size()),
                          scan::Backend::kAuto, sweep.winners.data());
}

ScenarioReport run_scenario_sharded(const Scenario& scenario,
                                    const ScenarioOptions& options,
                                    double until, double warmup) {
  PDS_CHECK(options.metrics_out.empty(),
            "metrics_out is not available with shards > 1");
  PDS_CHECK(options.max_events == 0 && options.max_wall_seconds == 0.0,
            "run budgets are not available with shards > 1");
  const std::uint32_t n = options.shards;
  const ScenarioPlan plan =
      plan_scenario(scenario, n, options.partition);

  // channels[src * n + dst]: single-producer (shard src, inside its
  // window), single-consumer (the coordinator, between barriers).
  std::vector<ShardChannel<Packet>> channels(
      static_cast<std::size_t>(n) * n);
  std::vector<ShardRuntime> runtimes(n);
  std::vector<std::unique_ptr<Replica>> replicas;
  const std::uint64_t seed = options.seed.value_or(scenario.run.seed);
  for (std::uint32_t s = 0; s < n; ++s) {
    replicas.push_back(std::make_unique<Replica>(seed));
    PublishFn publish = [&channels, n, s](std::uint32_t dst, SimTime ts,
                                          Packet&& p) {
      PDS_REQUIRE(dst < n && dst != s);
      channels[static_cast<std::size_t>(s) * n + dst].publish(ts,
                                                              std::move(p));
    };
    build_replica(*replicas.back(), scenario, options, warmup, &plan, s,
                  std::move(publish));
    runtimes[s].rep = replicas.back().get();
  }

  std::vector<ShardEngine::Shard> shards(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    ShardRuntime& rt = runtimes[s];
    shards[s].next_time = [&rt] {
      SimTime next = rt.rep->sim.next_time();
      for (std::size_t i = rt.pos; i < rt.inbox.size(); ++i) {
        next = std::min(next, rt.inbox[i].ts);
      }
      return next;
    };
    shards[s].run_window = [&rt](SimTime bound) {
      return run_shard_window(rt, bound);
    };
    shards[s].finish = [&rt](SimTime horizon) {
      return finish_shard(rt, horizon);
    };
  }

  ShardEngine engine(std::move(shards), plan.lookahead, until);
  std::vector<ShardMessage<Packet>> scratch;
  engine.set_splice([&channels, &runtimes, n, &scratch] {
    ShardEngine::SpliceResult result;
    for (std::uint32_t src = 0; src < n; ++src) {
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        auto& ch = channels[static_cast<std::size_t>(src) * n + dst];
        if (ch.pending() == 0) continue;
        scratch.clear();
        const std::size_t moved = ch.splice_into(scratch);
        result.moved += moved;
        result.max_batch =
            std::max<std::uint64_t>(result.max_batch, moved);
        auto& inbox = runtimes[dst].inbox;
        for (auto& m : scratch) {
          inbox.push_back(RemoteMsg{m.ts, src, m.seq, std::move(m.payload)});
        }
      }
    }
    return result;
  });
  if (options.shard_executor) engine.set_executor(options.shard_executor);

  std::vector<BacklogSweep> sweeps(n);
  std::vector<std::uint32_t> backlogged(n, 0);
  if (options.pdes_trace != nullptr) {
    PdesTrace* trace = options.pdes_trace;
    PDS_CHECK(trace->shards() == n, "PdesTrace shard count mismatch");
    for (LinkId id = 0; id < plan.part.link_owner.size(); ++id) {
      sweeps[plan.part.link_owner[id]].links.push_back(id);
    }
    engine.set_round_hook([trace, &runtimes, &sweeps, &backlogged, n](
                              std::uint64_t round,
                              const std::vector<SimTime>& bounds,
                              const std::vector<std::uint64_t>& processed) {
      for (std::uint32_t s = 0; s < n; ++s) {
        backlogged[s] = sweep_backlog(*runtimes[s].rep, sweeps[s]);
      }
      trace->record_round(round, bounds, processed, backlogged);
    });
  }

  const PdesStats stats = engine.run();
  for (auto& rep : replicas) stop_sources(*rep);
  if (options.pdes_stats != nullptr) *options.pdes_stats = stats;

  ScenarioReport report;
  std::vector<Replica*> ptrs;
  ptrs.reserve(replicas.size());
  for (auto& r : replicas) ptrs.push_back(r.get());
  fill_report(report, scenario, &plan, ptrs.data());
  return report;
}

}  // namespace

ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioOptions& options) {
  PDS_CHECK(options.horizon_scale > 0.0,
            "horizon scale must be positive");
  PDS_CHECK(options.shards >= 1, "shards must be at least 1");
  const double until = scenario.run.until * options.horizon_scale;
  const double warmup = scenario.run.warmup * options.horizon_scale;

  if (options.shards > 1) {
    return run_scenario_sharded(scenario, options, until, warmup);
  }

  Replica rep(options.seed.value_or(scenario.run.seed));
  build_replica(rep, scenario, options, warmup, nullptr, 0, {});

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
    for (const auto& [name, id] : rep.link_ids) {
      links.push_back({id, &registry.gauge("link." + name + ".util"),
                       &registry.gauge("link." + name + ".sent")});
    }
    std::vector<FlowGauges> flows;
    for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
      const std::string p = "flows.f" + std::to_string(i) + ".";
      flows.push_back({&registry.gauge(p + "completed"),
                       &registry.gauge(p + "failed"),
                       &registry.gauge(p + "retries"),
                       &registry.gauge(p + "waiting"),
                       &registry.gauge(p + "slo")});
    }
    metrics = std::make_unique<MetricsSnapshotWriter>(
        rep.sim, registry, options.metrics_out, options.metrics_window,
        [&rep, links = std::move(links), flows = std::move(flows)](SimTime) {
          for (const LinkGauges& l : links) {
            l.util->set(rep.net.utilization(l.id));
            l.sent->set(
                static_cast<double>(rep.net.link(l.id).packets_sent()));
          }
          for (std::size_t i = 0; i < flows.size(); ++i) {
            const auto& st = rep.workloads[i]->stats();
            flows[i].completed->set(static_cast<double>(st.completed));
            flows[i].failed->set(static_cast<double>(st.failed));
            flows[i].retries->set(static_cast<double>(st.retries));
            flows[i].waiting->set(
                static_cast<double>(rep.workloads[i]->waiting_users()));
            flows[i].slo->set(st.slo_attainment());
          }
        });
  }

  if (options.max_events > 0 || options.max_wall_seconds > 0.0) {
    rep.sim.set_budget(options.max_events, options.max_wall_seconds);
  }

  rep.sim.run_until(until);
  stop_sources(rep);

  ScenarioReport report;
  if (metrics) {
    metrics->flush();
    report.metrics_snapshots = metrics->snapshots_written();
  }
  Replica* replicas[] = {&rep};
  fill_report(report, scenario, nullptr, replicas);
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
