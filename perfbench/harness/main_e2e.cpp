// Untraced end-to-end benchmark binary: runs one workload through the
// simulator's public entry points for a fixed wall-time budget and prints
// the end-to-end metrics as the last stdout line (one JSON object).
//
//   pdsbench --workload=<name> --seed=<n> --seconds=<s> --work-dir=<dir>
//
// Timed repetitions all simulate the same inputs (same seed, same horizon),
// so every repetition must produce the same result digest. Throughput is
// the 10th percentile of the repetitions' packet rates: the host alternates
// between a slow and a fast speed state, and the low percentile tracks the
// slow state, which every run visits, rather than the share of the run the
// fast state happened to cover (NOTES.md, "Host noise").
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/supervisor.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using pdsbench::Check;
using pdsbench::Workload;

// Set-up repetitions time the entry point from the workload's inputs up to
// its first simulated event; results of these runs are discarded.
//
// Fabric: the scenario text with its horizon cut to kSetupHorizon time
// units. The run parses, builds the topology, routes, links and flows,
// executes the few events before the cut, assembles its report and tears
// down, ending normally.
//
// Study A: a run this short would have no post-warmup departures in some
// class, and run_study_a rejects a mean of an empty sample. The only public
// way to stop it right after its first event is the watchdog's event
// budget: with max_events = 1 it builds everything, executes the first
// event and throws at the second. That repetition therefore also times the
// budget trip (SimBudgetExceeded rethrown as WatchdogError with its
// backlog diagnostic) and the unwinding teardown.
constexpr double kSetupHorizon = 100.0;
constexpr std::uint64_t kSetupEvents = 1;

// Set-up repetitions run in batches interleaved with the timed repetitions,
// so their median samples the same host conditions as the packet rate.
// After each timed repetition a batch takes about kSetupShare of that
// repetition's wall time, with kMinBatch..kMaxBatch set-ups.
constexpr double kSetupShare = 0.05;
constexpr int kMinBatch = 3;
constexpr int kMaxBatch = 50;

constexpr int kMinTimedReps = 3;
constexpr double kRateQuantile = 0.10;

struct Rep {
  double wall = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  bool correct = false;  // the per-repetition output checks passed
};

// One workload behind three calls. `checks` runs after the timed loop and
// may run reference simulations; it also self-tests the checks against
// corrupted copies of the last result.
struct Runner {
  std::function<double()> setup_once;  // returns its own set-up time
  std::function<Rep()> timed_once;
  std::function<std::vector<Check>()> checks;
};

void run_setup_batch(const std::function<double()>& once, double budget,
                     std::vector<double>& times) {
  const double start = pdsbench::now_seconds();
  for (int i = 0; i < kMaxBatch && (i < kMinBatch ||
                                    pdsbench::now_seconds() - start < budget);
       ++i) {
    times.push_back(once());
  }
}

std::vector<Check> concat(std::vector<Check> a, const std::vector<Check>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

Runner study_a_runner(std::uint64_t seed, bool monitored,
                      const std::string& work_dir) {
  const std::string obs_dir = monitored ? work_dir : "";
  auto config = std::make_shared<pds::StudyAConfig>(
      pdsbench::study_a_config(seed, pdsbench::kStudyAHorizon, obs_dir));
  auto last = std::make_shared<pds::StudyAResult>();
  Runner r;
  r.setup_once = [config, monitored, work_dir] {
    auto setup = *config;
    setup.max_events = kSetupEvents;
    const double t0 = pdsbench::now_seconds();
    try {
      pds::run_study_a(setup);
    } catch (const pds::WatchdogError&) {
      const double elapsed = pdsbench::now_seconds() - t0;
      if (monitored) pdsbench::remove_sink_files(work_dir);
      return elapsed;
    }
    throw std::runtime_error("set-up repetition did not trip its budget");
  };
  r.timed_once = [config, last, monitored, work_dir] {
    Rep rep;
    const double t0 = pdsbench::now_seconds();
    *last = pds::run_study_a(*config);
    rep.wall = pdsbench::now_seconds() - t0;
    if (monitored) pdsbench::remove_sink_files(work_dir);
    rep.packets = last->total_departures;
    rep.digest = pdsbench::digest(*last);
    rep.correct = pdsbench::all_pass(pdsbench::check_study_a(*last, *config));
    return rep;
  };
  r.checks = [config, last, monitored, seed] {
    if (!monitored) {
      return concat(pdsbench::check_study_a(*last, *config),
                    pdsbench::self_test_study_a(*last, *config));
    }
    // Unmonitored reference of the same seed and horizon.
    const auto plain = pds::run_study_a(
        pdsbench::study_a_config(seed, pdsbench::kStudyAHorizon));
    return concat(pdsbench::check_monitored(*last, plain, *config),
                  pdsbench::self_test_monitored(*last, plain, *config));
  };
  return r;
}

Runner fabric_runner(std::uint64_t seed) {
  const std::string text =
      pdsbench::fabric_scenario(seed, pdsbench::kFabricHorizon);
  auto last = std::make_shared<pds::ScenarioReport>();
  Runner r;
  r.setup_once = [setup = pdsbench::fabric_scenario(seed, kSetupHorizon)] {
    const double t0 = pdsbench::now_seconds();
    pds::run_scenario(pds::parse_scenario(setup), pds::ScenarioOptions{});
    return pdsbench::now_seconds() - t0;
  };
  r.timed_once = [text, last] {
    Rep rep;
    const double t0 = pdsbench::now_seconds();
    *last = pds::run_scenario(pds::parse_scenario(text),
                              pds::ScenarioOptions{});
    rep.wall = pdsbench::now_seconds() - t0;
    rep.packets = last->total_exits;
    rep.digest = pdsbench::digest(*last);
    rep.correct = pdsbench::all_pass(pdsbench::check_fabric(*last));
    return rep;
  };
  r.checks = [last] {
    return concat(pdsbench::check_fabric(*last),
                  pdsbench::self_test_fabric(*last));
  };
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    pds::ArgParser args(argc, argv);
    args.require_known({"workload", "seed", "seconds", "work-dir"});
    const auto workload =
        pdsbench::parse_workload(args.get_string("workload", ""));
    if (!workload) {
      std::cerr << "pdsbench: unknown --workload\n";
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    // Required, so the sinks never write into (and the cleanup never
    // touches) whatever directory the binary happens to start in.
    const std::string work_dir = args.get_string("work-dir", "");
    if (work_dir.empty()) {
      std::cerr << "pdsbench: --work-dir is required\n";
      return 2;
    }

    Runner runner =
        *workload == Workload::kFabricK8Rpc
            ? fabric_runner(seed)
            : study_a_runner(seed, *workload == Workload::kSingleLinkMonitored,
                             work_dir);

    std::vector<Rep> reps;
    std::vector<double> setup_times;
    const double start = pdsbench::now_seconds();
    while (static_cast<int>(reps.size()) < kMinTimedReps ||
           pdsbench::now_seconds() - start < seconds) {
      reps.push_back(runner.timed_once());
      run_setup_batch(runner.setup_once, kSetupShare * reps.back().wall,
                      setup_times);
    }
    const double setup_s = pdsbench::median(setup_times);
    // Read before the checks run any reference simulation.
    const double rss_mb = pdsbench::peak_rss_mb();

    std::uint64_t failed = 0;
    bool digests_identical = true;
    std::vector<double> rates;
    for (const Rep& rep : reps) {
      if (!rep.correct) ++failed;
      digests_identical = digests_identical && rep.digest == reps[0].digest;
      rates.push_back(static_cast<double>(rep.packets) / (rep.wall - setup_s));
      std::fprintf(stderr, "rep %.6f s %.1f packets/s\n", rep.wall,
                   rates.back());
    }
    std::vector<Check> checks = runner.checks();
    checks.push_back(Check{"digest_identical_across_repetitions",
                           digests_identical, ""});
    // Every repetition produced the same digest, so a check that fails on
    // the last result fails on all of them.
    if (!pdsbench::all_pass(checks)) failed = reps.size();

    for (const Check& c : checks) {
      std::cout << "check " << c.name << ": " << (c.pass ? "ok" : "FAIL")
                << (c.detail.empty() ? "" : " (" + c.detail + ")") << "\n";
    }
    std::printf("reps %zu packets/rep %llu set-ups %zu digest %016llx\n",
                reps.size(), static_cast<unsigned long long>(reps[0].packets),
                setup_times.size(),
                static_cast<unsigned long long>(reps[0].digest));
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": "
        "{\"packets_per_s\": {\"value\": %.6f, \"unit\": \"1/s\"}, "
        "\"peak_rss_mb\": {\"value\": %.6f, \"unit\": \"MB\"}, "
        "\"setup_s\": {\"value\": %.9g, \"unit\": \"s\"}}}\n",
        failed == 0 ? "true" : "false", reps.size(),
        static_cast<unsigned long long>(failed),
        pdsbench::quantile(rates, kRateQuantile),
        rss_mb, setup_s);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pdsbench: " << e.what() << "\n";
    return 1;
  }
}
