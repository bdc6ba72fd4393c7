// Workload definitions shared by the untraced (pdsbench) and traced
// (pdsbench_traced) benchmark binaries: input generation from a seed, the
// result digests, and the output checks. See perfbench/NOTES.md for why each
// workload exists and which layers it loads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/study_a.hpp"
#include "net/scenario.hpp"

namespace pdsbench {

enum class Workload { kSingleLinkWtp, kFabricK8Rpc, kSingleLinkMonitored };

std::optional<Workload> parse_workload(const std::string& name);

// --- single_link_wtp / single_link_monitored ------------------------------

// Study A horizon of one repetition (time units). Both single-link
// workloads use it, so the monitored run is comparable bit for bit.
inline constexpr double kStudyAHorizon = 1.0e7;

// The paper's Study A at rho = 0.95 (WTP, SDP 1,2,4,8, load 40/30/20/10,
// Pareto(1.9) sources). With a non-empty `obs_dir` the always-on telemetry
// sinks are switched on and write into that directory: the windowed metrics
// CSV, the conformance monitor with its violation log, a 1% lifecycle
// trace, the profiler and the run report.
pds::StudyAConfig study_a_config(std::uint64_t seed, double horizon,
                                 const std::string& obs_dir = "");

// Digest of every simulated figure a Study A run reports that does not
// depend on wall-clock time (FNV-1a over the raw bits).
std::uint64_t digest(const pds::StudyAResult& r);

// --- fabric_k8_rpc --------------------------------------------------------

inline constexpr double kFabricHorizon = 4.0e5;

// Scenario text of the k=8 fat-tree workload: 8 cross-pod open-loop mix
// sources plus 300 closed-loop RPC users (150 premium cross-pod with
// deadline/RTO/retries/throttle, 150 intra-pod bulk pulls). Endpoint
// placement and pod pairings are drawn from `seed`, which is also the
// scenario's simulation seed.
std::string fabric_scenario(std::uint64_t seed, double until);

std::uint64_t digest(const pds::ScenarioReport& r);

// --- output checks --------------------------------------------------------

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

std::vector<Check> check_study_a(const pds::StudyAResult& r,
                                 const pds::StudyAConfig& config);
std::vector<Check> check_monitored(const pds::StudyAResult& monitored,
                                   const pds::StudyAResult& plain,
                                   const pds::StudyAConfig& config);
std::vector<Check> check_fabric(const pds::ScenarioReport& r);

// Self-test of the checks above: corrupts copies of a good result one field
// at a time and reports, per corruption, whether some check caught it.
std::vector<Check> self_test_study_a(const pds::StudyAResult& r,
                                     const pds::StudyAConfig& config);
std::vector<Check> self_test_monitored(const pds::StudyAResult& monitored,
                                       const pds::StudyAResult& plain,
                                       const pds::StudyAConfig& config);
std::vector<Check> self_test_fabric(const pds::ScenarioReport& r);

bool all_pass(const std::vector<Check>& checks);

// --- timing helpers -------------------------------------------------------

// Removes the files the monitored sinks write into `dir` (metrics.csv,
// trace.csv, violations.jsonl, report.json and their `.tmp` siblings) and
// nothing else. Each repetition then starts from an empty directory, as a
// first run does: the sinks replace their files through a rename, and on
// ext4 a rename over an existing file forces the new file's data to disk,
// which would put disk writeback into every later set-up time.
void remove_sink_files(const std::string& dir);

// Total size in bytes of the sink files present in `dir`.
double sink_bytes(const std::string& dir);

double now_seconds();
// Linear interpolation between order statistics; p in [0, 1].
double quantile(std::vector<double> v, double p);
double median(std::vector<double> v);
double peak_rss_mb();

}  // namespace pdsbench
