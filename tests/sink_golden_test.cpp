// Golden pins for every file the always-on telemetry sinks write.
//
// The Study A packet trace is pinned in dispatch_equiv_test.cpp; these
// FNV-1a pins cover the other sink files — the metrics time series (CSV and
// JSONL), the conformance violation log and the run report — from a short
// Study A run with every sink on, plus the scenario runner's metrics series
// on the shipped y_merge and ring scenarios. Any change to a sink's number
// formatting, row order or metric set shows up as a hash mismatch and must
// be an intentional, reviewed break of the output contract.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/study_a.hpp"
#include "net/scenario.hpp"

#ifndef PDS_SCENARIO_DIR
#error "PDS_SCENARIO_DIR must name examples/scenarios"
#endif

namespace pds {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  return hash;
}

::testing::AssertionResult MatchesPin(const std::string& path,
                                      std::uint64_t pin) {
  const std::string bytes = slurp(path);
  if (bytes.empty()) {
    return ::testing::AssertionFailure() << path << " is empty";
  }
  const std::uint64_t hash = fnv1a(bytes);
  if (hash == pin) return ::testing::AssertionSuccess();
  char got[32];
  std::snprintf(got, sizeof got, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return ::testing::AssertionFailure()
         << path << " hashes to " << got << " (" << bytes.size() << " B)";
}

// Every Study A sink on: metrics series, 5% lifecycle trace, profiler,
// conformance with a violation log, and a non-volatile run report.
StudyAConfig all_sinks_config(const std::string& metrics_out,
                              const std::string& trace_out,
                              const std::string& violations_out,
                              const std::string& report_out) {
  StudyAConfig c;
  c.sim_time = 2.0e4;
  c.seed = 42;
  c.metrics_out = metrics_out;
  c.metrics_window = 50.0 * kPUnit;
  c.trace_out = trace_out;
  c.trace_sample = 0.05;
  c.profile = true;
  c.conformance_tau = 50.0 * kPUnit;
  c.conformance_out = violations_out;
  c.report_out = report_out;
  c.report_volatile = false;
  return c;
}

TEST(SinkGolden, StudyAAllSinksMatchPins) {
  TempFile csv("pds_sink_golden_metrics.csv");
  TempFile trace("pds_sink_golden_trace.csv");
  TempFile violations("pds_sink_golden_violations.jsonl");
  TempFile report("pds_sink_golden_report.json");
  const StudyAResult r = run_study_a(
      all_sinks_config(csv.path, trace.path, violations.path, report.path));
  ASSERT_GT(r.metrics_snapshots, 10u);
  ASSERT_GT(r.trace_records, 0u);
  ASSERT_GT(r.conformance.violations, 0u);

  EXPECT_TRUE(MatchesPin(csv.path, 0x6aeeae8a5f2eb5d1ULL));
  EXPECT_TRUE(MatchesPin(violations.path, 0xd080ae3e20da3429ULL));
  EXPECT_TRUE(MatchesPin(report.path, 0xca0ca65d395504ebULL));

  // The same run with a .jsonl metrics path: only the metrics format moves.
  TempFile jsonl("pds_sink_golden_metrics.jsonl");
  TempFile trace2("pds_sink_golden_trace2.csv");
  TempFile violations2("pds_sink_golden_violations2.jsonl");
  TempFile report2("pds_sink_golden_report2.json");
  run_study_a(all_sinks_config(jsonl.path, trace2.path, violations2.path,
                               report2.path));
  EXPECT_TRUE(MatchesPin(jsonl.path, 0x926702c2c7e02a07ULL));
  EXPECT_EQ(slurp(trace.path), slurp(trace2.path));
  EXPECT_EQ(slurp(violations.path), slurp(violations2.path));
  EXPECT_EQ(slurp(report.path), slurp(report2.path));
}

// Fault and control plans add the lazily created ctrl.shed.cN counters and
// stamp violations with the active episodes.
TEST(SinkGolden, StudyAWithPlansMatchesPins) {
  TempFile csv("pds_sink_golden_plans.csv");
  TempFile trace("pds_sink_golden_plans_trace.csv");
  TempFile violations("pds_sink_golden_plans_violations.jsonl");
  TempFile report("pds_sink_golden_plans_report.json");
  StudyAConfig c =
      all_sinks_config(csv.path, trace.path, violations.path, report.path);
  c.fault_plan = "degrade link at=6000 for=3000 factor=0.5\n";
  c.control_plan =
      "retune link at=4000 w=1,3,9,27\n"
      "shed link at=8000 for=6000 watermark=20 classes=2\n";
  const StudyAResult r = run_study_a(c);
  ASSERT_GT(r.shed_drops, 0u);

  // A class's shed counter appears with its first shed drop, not before.
  const std::string metrics = slurp(csv.path);
  const auto first_shed = metrics.find(",ctrl.shed.c0,counter,");
  ASSERT_NE(first_shed, std::string::npos);
  const auto row_start = metrics.rfind('\n', first_shed) + 1;
  EXPECT_GE(std::stod(metrics.substr(row_start, first_shed - row_start)),
            8000.0);
  EXPECT_EQ(metrics.find(",ctrl.shed.c3,"), std::string::npos);
  EXPECT_TRUE(MatchesPin(csv.path, 0x6eb167a16a353028ULL));
  EXPECT_TRUE(MatchesPin(violations.path, 0xed464090e9717843ULL));
  EXPECT_TRUE(MatchesPin(report.path, 0x37d94515ed8e79efULL));
}

std::string scenario_text(const std::string& name) {
  return slurp(std::string(PDS_SCENARIO_DIR) + "/" + name);
}

// What `netsim_cli --file=y_merge.pds --metrics-out=FILE` writes.
TEST(SinkGolden, YMergeScenarioMetricsMatchPins) {
  for (const char* ext : {".csv", ".jsonl"}) {
    TempFile out(std::string("pds_sink_golden_y_merge") + ext);
    ScenarioOptions options;
    options.metrics_out = out.path;
    const ScenarioReport report =
        run_scenario(scenario_text("y_merge.pds"), options);
    EXPECT_EQ(report.metrics_snapshots, 60u);
    EXPECT_TRUE(MatchesPin(out.path, std::string(ext) == ".csv"
                                         ? 0xc215fb731c2abb72ULL
                                         : 0x136898f41a85f6afULL));
  }
}

// The ring scenario adds the closed-loop flow gauges (flows.fN.*).
TEST(SinkGolden, RingScenarioMetricsMatchPin) {
  TempFile out("pds_sink_golden_ring.csv");
  ScenarioOptions options;
  options.metrics_out = out.path;
  options.horizon_scale = 0.1;  // what netsim_cli --quick runs
  run_scenario(scenario_text("ring.pds"), options);
  const std::string metrics = slurp(out.path);
  EXPECT_NE(metrics.find(",flows.f0.slo,gauge,"), std::string::npos);
  EXPECT_TRUE(MatchesPin(out.path, 0x732d094133a03d64ULL));
}

}  // namespace
}  // namespace pds
