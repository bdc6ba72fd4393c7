#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dsim/time.hpp"

namespace pdsbench {

namespace {

// FNV-1a over raw bytes; doubles hash by bit pattern, so "identical" means
// bit-identical.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  template <typename T>
  void f64s(const std::vector<T>& v) {
    u64(v.size());
    for (const auto x : v) f64(static_cast<double>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// SplitMix64: the benchmark's own input generator, independent of the
// simulator's Rng so input generation never shifts with simulator changes.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

// Output-check bands for single_link_wtp at kStudyAHorizon. Over seeds
// 1..75 at the parent commit the measured load stayed within 0.9428..0.9562
// and every adjacent delay ratio within 1.816..1.971; the bands below keep
// about twice that margin (NOTES.md, "Output checks"). Study A's
// Pareto(1.9) sources have infinite variance, so both wander further from
// their targets than a Poisson run would.
constexpr double kRho = 0.95;
constexpr double kUtilTolerance = 0.015;
constexpr double kRatioTarget = 2.0;  // SDP ratio s_{i+1}/s_i
constexpr double kRatioLow = 1.7;
constexpr double kRatioHigh = 2.1;

// Monitored sinks (simulate_cli defaults: 100 p-unit windows, 1% trace).
constexpr double kMetricsWindowP = 100.0;
constexpr double kConformanceTauP = 100.0;

// Files the monitored sinks write, relative to their directory.
constexpr const char* kSinkFiles[] = {"metrics.csv", "trace.csv",
                                      "violations.jsonl", "report.json"};

Check make(std::string name, bool pass, std::string detail = "") {
  return Check{std::move(name), pass, std::move(detail)};
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "single_link_wtp") return Workload::kSingleLinkWtp;
  if (name == "fabric_k8_rpc") return Workload::kFabricK8Rpc;
  if (name == "single_link_monitored") return Workload::kSingleLinkMonitored;
  return std::nullopt;
}

pds::StudyAConfig study_a_config(std::uint64_t seed, double horizon,
                                 const std::string& obs_dir) {
  pds::StudyAConfig c;  // defaults are the paper's settings
  c.scheduler = pds::SchedulerKind::kWtp;
  c.utilization = kRho;
  c.sim_time = horizon;
  c.seed = seed;
  if (!obs_dir.empty()) {
    c.metrics_out = obs_dir + "/" + kSinkFiles[0];
    c.metrics_window = kMetricsWindowP * pds::kPUnit;
    c.trace_out = obs_dir + "/" + kSinkFiles[1];
    c.trace_sample = 0.01;
    c.profile = true;
    c.conformance_tau = kConformanceTauP * pds::kPUnit;
    c.conformance_out = obs_dir + "/" + kSinkFiles[2];
    c.report_out = obs_dir + "/" + kSinkFiles[3];
  }
  return c;
}

std::uint64_t digest(const pds::StudyAResult& r) {
  Fnv h;
  h.f64s(r.mean_delays);
  h.f64s(r.departures);
  h.f64s(r.ratios);
  h.f64(r.measured_utilization);
  h.u64(r.total_departures);
  h.u64(r.executed_events);
  h.f64s(r.sawtooth_index);
  h.u64(r.sawtooth_collapses);
  h.f64s(r.jitter);
  h.u64(r.metrics_snapshots);
  h.u64(r.trace_records);
  h.u64(r.conformance.windows);
  h.u64(r.conformance.pairs_checked);
  h.u64(r.conformance.pairs_undefined);
  h.u64(r.conformance.violations);
  h.f64(r.conformance.max_error);
  h.f64(r.conformance.mean_error);
  h.u64(r.violations.size());
  return h.value();
}

std::string fabric_scenario(std::uint64_t seed, double until) {
  // Routing is minimum-hop with the smallest-link-id tie-break, so every
  // cross-pod route climbs through its pod's agg0 and core0. Pod pairings
  // are rotations (a permutation per traffic kind), and each pod gives its
  // four edge switches distinct roles, so no link carries more than one
  // source of each kind and the busiest links stay near 75% load.
  InputRng rng(seed);
  const std::uint32_t pods = 8;
  std::vector<std::uint32_t> role_base(pods);
  for (auto& b : role_base) b = rng.below(4);
  const auto edge = [&](std::uint32_t pod, std::uint32_t role) {
    return "p" + std::to_string(pod) + "edge" +
           std::to_string((role_base[pod] + role) % 4);
  };
  const std::uint32_t mix_shift = 1 + rng.below(pods - 1);
  const std::uint32_t rpc_shift = 1 + rng.below(pods - 1);
  const std::uint32_t rpc_first = rng.below(pods);
  const std::uint32_t bulk_first = rng.below(pods);

  std::ostringstream os;
  os << "# fabric_k8_rpc, generated from seed " << seed << "\n"
     << "topology fat_tree k=8 capacity=39.375 sched=wtp sdp=1,2,4\n";
  for (std::uint32_t p = 0; p < pods; ++p) {
    os << "route bg" << p << " from=" << edge(p, 0)
       << " to=" << edge((p + mix_shift) % pods, 0) << "\n"
       << "source mix bg" << p
       << " fractions=60,30,10 gap=30 size=441 pareto=1.9\n";
  }
  for (std::uint32_t j = 0; j < 6; ++j) {
    const std::uint32_t p = (rpc_first + j) % pods;
    os << "route svc" << j << " from=" << edge(p, 1)
       << " to=" << edge((p + rpc_shift) % pods, 1) << "\n"
       << "flows svc" << j
       << " class=2 users=25 size=441 think=3000 request=2 response=2"
          " deadline=450 rto=900 retries=2 backoff=2 throttle=50"
          " throttle_ratio=0.2\n";
  }
  for (std::uint32_t j = 0; j < 6; ++j) {
    const std::uint32_t p = (bulk_first + j) % pods;
    os << "route bulk" << j << " from=" << edge(p, 2) << " to=" << edge(p, 3)
       << "\n"
       << "flows bulk" << j
       << " class=0 users=25 size=600 think=6000 request=1 response=4"
          " deadline=2000\n";
  }
  os.precision(17);
  os << "run until=" << until << " warmup=" << until / 10.0
     << " seed=" << seed << "\n";
  return os.str();
}

std::uint64_t digest(const pds::ScenarioReport& r) {
  Fnv h;
  h.u64(r.route_stats.size());
  for (const auto& s : r.route_stats) {
    h.str(s.route);
    h.u64(s.cls);
    h.u64(s.packets);
    h.f64(s.mean_delay);
    h.f64(s.p95_delay);
  }
  h.u64(r.link_stats.size());
  for (const auto& l : r.link_stats) {
    h.str(l.link);
    h.f64(l.utilization);
    h.u64(l.packets_sent);
    h.u64(l.fault_drops + l.burst_drops + l.buffer_drops + l.control_drops);
  }
  h.u64(r.flow_stats.size());
  for (const auto& f : r.flow_stats) {
    h.str(f.route);
    h.u64(f.cls);
    h.u64(f.users);
    h.u64(f.issued);
    h.u64(f.completed);
    h.u64(f.failed);
    h.u64(f.retries);
    h.u64(f.throttled);
    h.f64(f.fct_mean);
    h.f64(f.fct_p50);
    h.f64(f.fct_p95);
    h.f64(f.fct_p99);
    h.f64(f.slo_attainment);
  }
  h.u64(r.total_exits);
  return h.value();
}

std::vector<Check> check_study_a(const pds::StudyAResult& r,
                                 const pds::StudyAConfig& config) {
  std::vector<Check> out;
  const std::size_t n = config.num_classes();
  out.push_back(make("utilization_matches_rho",
                     std::abs(r.measured_utilization - kRho) <= kUtilTolerance,
                     "measured " + fmt(r.measured_utilization)));

  bool shapes = r.mean_delays.size() == n && r.departures.size() == n &&
                r.ratios.size() + 1 == n;
  out.push_back(make("result_shape", shapes));
  if (!shapes) return out;

  std::uint64_t sum = 0;
  bool every_class = true;
  for (const auto d : r.departures) {
    sum += d;
    every_class = every_class && d > 0;
  }
  out.push_back(make("departures_sum_to_total",
                     every_class && sum == r.total_departures,
                     std::to_string(sum) + " vs " +
                         std::to_string(r.total_departures)));

  bool consistent = true;
  bool in_band = true;
  std::string ratios;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    consistent =
        consistent &&
        same_bits(r.ratios[i], r.mean_delays[i] / r.mean_delays[i + 1]);
    in_band = in_band && r.ratios[i] >= kRatioLow && r.ratios[i] <= kRatioHigh;
    ratios += (i ? "," : "") + fmt(r.ratios[i]);
  }
  out.push_back(make("ratios_are_delay_quotients", consistent));
  out.push_back(make("delay_ratios_near_sdp_ratio_" + fmt(kRatioTarget),
                     in_band, ratios));
  return out;
}

std::vector<Check> check_monitored(const pds::StudyAResult& monitored,
                                   const pds::StudyAResult& plain,
                                   const pds::StudyAConfig& config) {
  std::vector<Check> out = check_study_a(monitored, config);
  bool same = monitored.mean_delays.size() == plain.mean_delays.size() &&
              monitored.departures == plain.departures;
  for (std::size_t i = 0; same && i < plain.mean_delays.size(); ++i) {
    same = same_bits(monitored.mean_delays[i], plain.mean_delays[i]);
  }
  out.push_back(make("bit_identical_to_unmonitored", same));

  // Both sinks close a final partial window at the end of the run.
  const auto expect_snapshots = static_cast<std::uint64_t>(
      std::ceil(config.sim_time / config.metrics_window));
  out.push_back(make("metrics_snapshots_match_horizon",
                     monitored.metrics_snapshots == expect_snapshots,
                     std::to_string(monitored.metrics_snapshots) + " vs " +
                         std::to_string(expect_snapshots)));
  const auto expect_windows = static_cast<std::uint64_t>(std::ceil(
      (config.sim_time - config.warmup_end()) / config.conformance_tau));
  out.push_back(make("conformance_windows_match_horizon",
                     monitored.conformance.windows == expect_windows,
                     std::to_string(monitored.conformance.windows) + " vs " +
                         std::to_string(expect_windows)));
  out.push_back(make("lifecycle_trace_nonempty", monitored.trace_records > 0));
  return out;
}

std::vector<Check> check_fabric(const pds::ScenarioReport& r) {
  std::vector<Check> out;
  bool counts = !r.flow_stats.empty();
  bool slo = true;
  for (const auto& f : r.flow_stats) {
    counts = counts && f.completed + f.failed <= f.issued && f.completed > 0;
    slo = slo && f.slo_attainment >= 0.0 && f.slo_attainment <= 1.0;
  }
  out.push_back(make("flows_completed_plus_failed_le_issued", counts));
  out.push_back(make("slo_attainment_in_unit_interval", slo));
  bool util = !r.link_stats.empty();
  double max_util = 0.0;
  for (const auto& l : r.link_stats) {
    util = util && l.utilization >= 0.0 && l.utilization <= 1.0;
    max_util = std::max(max_util, l.utilization);
  }
  out.push_back(make("link_utilization_le_1", util, "max " + fmt(max_util)));
  out.push_back(make("route_exits_positive", r.total_exits > 0,
                     std::to_string(r.total_exits)));
  return out;
}

namespace {

// One self-test row: the corrupted copy must fail some check and change the
// digest.
template <typename R, typename CheckFn, typename DigestFn>
Check caught(const std::string& what, const R& good, R bad, CheckFn checks,
             DigestFn dig) {
  const bool check_fails = !all_pass(checks(bad));
  const bool digest_moves = dig(bad) != dig(good);
  return make("selftest." + what, check_fails && digest_moves,
              std::string(check_fails ? "" : "check missed it; ") +
                  (digest_moves ? "" : "digest missed it"));
}

}  // namespace

std::vector<Check> self_test_study_a(const pds::StudyAResult& r,
                                     const pds::StudyAConfig& config) {
  const auto checks = [&](const pds::StudyAResult& x) {
    return check_study_a(x, config);
  };
  const auto dig = [](const pds::StudyAResult& x) { return digest(x); };
  std::vector<Check> out;
  auto bad = r;
  bad.measured_utilization += 0.2;
  out.push_back(caught("utilization", r, bad, checks, dig));
  bad = r;
  bad.ratios[0] = 3.5;
  out.push_back(caught("ratio_out_of_band", r, bad, checks, dig));
  bad = r;
  bad.mean_delays[1] *= 1.0 + 1e-12;
  out.push_back(caught("mean_delay", r, bad, checks, dig));
  bad = r;
  bad.departures[2] += 1;
  out.push_back(caught("departures", r, bad, checks, dig));
  return out;
}

std::vector<Check> self_test_monitored(const pds::StudyAResult& monitored,
                                       const pds::StudyAResult& plain,
                                       const pds::StudyAConfig& config) {
  const auto checks = [&](const pds::StudyAResult& x) {
    return check_monitored(x, plain, config);
  };
  const auto dig = [](const pds::StudyAResult& x) { return digest(x); };
  std::vector<Check> out;
  auto bad = monitored;
  // Keep ratios consistent so only the identity check can catch it.
  bad.mean_delays[3] = std::nextafter(bad.mean_delays[3], 1e300);
  bad.ratios[2] = bad.mean_delays[2] / bad.mean_delays[3];
  out.push_back(caught("perturbed_by_telemetry", monitored, bad, checks, dig));
  bad = monitored;
  bad.metrics_snapshots -= 1;
  out.push_back(caught("metrics_snapshots", monitored, bad, checks, dig));
  bad = monitored;
  bad.conformance.windows += 1;
  out.push_back(caught("conformance_windows", monitored, bad, checks, dig));
  bad = monitored;
  bad.trace_records = 0;
  out.push_back(caught("trace_records", monitored, bad, checks, dig));
  return out;
}

std::vector<Check> self_test_fabric(const pds::ScenarioReport& r) {
  const auto checks = [](const pds::ScenarioReport& x) {
    return check_fabric(x);
  };
  const auto dig = [](const pds::ScenarioReport& x) { return digest(x); };
  std::vector<Check> out;
  auto bad = r;
  bad.flow_stats[0].completed = bad.flow_stats[0].issued + 1;
  out.push_back(caught("flow_counts", r, bad, checks, dig));
  bad = r;
  bad.flow_stats.back().slo_attainment = 1.5;
  out.push_back(caught("slo_range", r, bad, checks, dig));
  bad = r;
  bad.link_stats[0].utilization = 1.2;
  out.push_back(caught("link_utilization", r, bad, checks, dig));
  bad = r;
  bad.total_exits = 0;
  out.push_back(caught("route_exits", r, bad, checks, dig));
  return out;
}

bool all_pass(const std::vector<Check>& checks) {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.pass; });
}

void remove_sink_files(const std::string& dir) {
  for (const char* name : kSinkFiles) {
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
  }
}

double sink_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const char* name : kSinkFiles) {
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    if (std::filesystem::is_regular_file(path)) {
      bytes += static_cast<double>(std::filesystem::file_size(path));
    }
  }
  return bytes;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  // VmHWM is the high-water mark of this address space. getrusage's
  // ru_maxrss is not used: Linux carries it across execve, so it would
  // report the launching process's peak whenever that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace pdsbench
