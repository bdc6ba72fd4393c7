#include <gtest/gtest.h>

#include <string_view>

#include "net/flows.hpp"
#include "net/scenario.hpp"

namespace pds {
namespace {

SchedulerConfig fcfs_config() {
  SchedulerConfig c;
  c.sdp = {1.0};
  c.link_capacity = 100.0;
  return c;
}

// A two-node graph with one link per direction plus a workload wired the
// way the scenario runner wires it (exit handlers feed on_route_exit).
struct Harness {
  Simulator sim;
  Network net{sim};
  PacketIdAllocator ids;
  FlowIdAllocator flow_ids;
  RouteId forward = 0;
  RouteId reverse = 0;
  RpcWorkload* workload = nullptr;

  Harness() {
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    const auto ab = net.add_edge(a, b, SchedulerKind::kFcfs, fcfs_config(),
                                 100.0);
    const auto ba = net.add_edge(b, a, SchedulerKind::kFcfs, fcfs_config(),
                                 100.0);
    const auto handler = [this](const Packet& p, SimTime now) {
      if (workload != nullptr) workload->on_route_exit(p, now);
    };
    forward = net.add_route({ab}, handler);
    reverse = net.add_route({ba}, handler);
  }
};

TEST(RpcWorkload, FctIsExactOnAnIdleLine) {
  // One saturating user, 100 B packets on 100 B/tu links: 1 tu per
  // direction, so every FCT is exactly 2 tu and RPCs complete
  // back-to-back.
  Harness h;
  RpcConfig config;
  config.users = 1;
  config.size_bytes = 100;
  config.think_mean = 0.0;
  config.deadline = 2.0;
  RpcWorkload wl(h.sim, h.net, h.ids, h.flow_ids, h.forward, h.reverse,
                 config, Rng(1));
  h.workload = &wl;
  wl.start(0.0);
  h.sim.run_until(100.0);
  EXPECT_EQ(wl.stats().completed, 50u);
  EXPECT_EQ(wl.stats().failed, 0u);
  EXPECT_DOUBLE_EQ(wl.stats().fct.mean(), 2.0);
  EXPECT_DOUBLE_EQ(wl.stats().slo_attainment(), 1.0);
}

TEST(RpcWorkload, CompletedRpcsLeaveNoRetryTimerBehind) {
  // Every RPC completes long before its rto: each completion cancels the
  // pending retry timer, so no flow.rto event ever runs and the queue
  // holds one timer per user plus at most one transmission per link.
  struct RtoCounter : SimMonitor {
    int rto_runs = 0;
    void on_event_begin(SimTime, const char* label,
                        std::size_t) noexcept override {
      if (label != nullptr && std::string_view(label) == "flow.rto") {
        ++rto_runs;
      }
    }
    void on_event_end(SimTime, const char*) noexcept override {}
  };
  Harness h;
  RpcConfig config;
  config.users = 3;
  config.size_bytes = 100;
  config.think_mean = 5.0;
  config.rto = 50.0;
  config.max_retries = 2;
  RpcWorkload wl(h.sim, h.net, h.ids, h.flow_ids, h.forward, h.reverse,
                 config, Rng(4));
  h.workload = &wl;
  RtoCounter counter;
  h.sim.set_monitor(&counter);
  wl.start(0.0);
  h.sim.run_until(1000.0);
  EXPECT_GT(wl.stats().completed, 100u);
  EXPECT_EQ(wl.stats().retries, 0u);
  EXPECT_EQ(counter.rto_runs, 0);
  EXPECT_LE(h.sim.pending_events(), config.users + 2u);
}

TEST(RpcWorkload, MultiPacketRequestAndResponseStretchTheFct) {
  // request=2, response=3: the server replies when the SECOND request
  // packet exits (t=2); responses exit at 3,4,5 -> FCT 5.
  Harness h;
  RpcConfig config;
  config.users = 1;
  config.size_bytes = 100;
  config.request_packets = 2;
  config.response_packets = 3;
  RpcWorkload wl(h.sim, h.net, h.ids, h.flow_ids, h.forward, h.reverse,
                 config, Rng(1));
  h.workload = &wl;
  wl.start(0.0);
  h.sim.run_until(5.5);
  EXPECT_EQ(wl.stats().completed, 1u);
  EXPECT_DOUBLE_EQ(wl.stats().fct.mean(), 5.0);
}

TEST(RpcWorkload, DeadlineMissesCountAgainstTheSlo) {
  Harness h;
  RpcConfig config;
  config.users = 1;
  config.size_bytes = 100;
  config.deadline = 1.9;  // every FCT is 2.0 -> every RPC misses
  RpcWorkload wl(h.sim, h.net, h.ids, h.flow_ids, h.forward, h.reverse,
                 config, Rng(1));
  h.workload = &wl;
  wl.start(0.0);
  h.sim.run_until(20.0);
  EXPECT_GT(wl.stats().completed, 0u);
  EXPECT_EQ(wl.stats().slo_met, 0u);
  EXPECT_DOUBLE_EQ(wl.stats().slo_attainment(), 0.0);
}

TEST(RpcWorkload, WarmupExcludesEarlyRpcsFromScoring) {
  Harness h;
  RpcConfig config;
  config.users = 1;
  config.size_bytes = 100;
  RpcWorkload wl(h.sim, h.net, h.ids, h.flow_ids, h.forward, h.reverse,
                 config, Rng(1));
  h.workload = &wl;
  wl.set_warmup(50.0);
  wl.start(0.0);
  h.sim.run_until(100.0);
  // Issues at t = 0, 2, ..., 100 (the t=100 one is still in flight when
  // the run stops); only the 25 issued at t in [50, 98] score.
  EXPECT_EQ(wl.stats().issued, 51u);
  EXPECT_EQ(wl.stats().completed, 25u);
}

TEST(RpcWorkload, ValidatesItsConfig) {
  Harness h;
  RpcConfig config;
  config.users = 0;
  EXPECT_THROW(RpcWorkload(h.sim, h.net, h.ids, h.flow_ids, h.forward,
                           h.reverse, config, Rng(1)),
               std::invalid_argument);
  config.users = 1;
  config.max_retries = 2;  // retries without an rto
  EXPECT_THROW(RpcWorkload(h.sim, h.net, h.ids, h.flow_ids, h.forward,
                           h.reverse, config, Rng(1)),
               std::invalid_argument);
}

// ------------------------------------------------- scenario-level behavior

// Line a<->b carrying one closed-loop workload; knobs appended per test.
std::string flows_scenario(const std::string& flows_line) {
  return "topology line n=2 capacity=100 sched=fcfs sdp=1\n"
         "route r from=n0 to=n1\n" +
         flows_line + "run until=20000 warmup=1000 seed=3\n";
}

TEST(ScenarioFlowsRun, ReportsFlowStatsAndSloAttainment) {
  const auto report = run_scenario(flows_scenario(
      "flows r class=0 users=4 size=441 think=50 deadline=40\n"));
  ASSERT_EQ(report.flow_stats.size(), 1u);
  const auto& fs = report.flow_stats[0];
  EXPECT_EQ(fs.route, "r");
  EXPECT_EQ(fs.users, 4u);
  EXPECT_GT(fs.completed, 100u);
  EXPECT_EQ(fs.failed, 0u);
  EXPECT_GT(fs.fct_p50, 0.0);
  EXPECT_LE(fs.fct_p50, fs.fct_p95);
  EXPECT_LE(fs.fct_p95, fs.fct_p99);
  EXPECT_GT(fs.slo_attainment, 0.9);
}

TEST(ScenarioFlowsRun, DeterministicPerSeedAndSensitiveToIt) {
  const auto text = flows_scenario(
      "flows r class=0 users=4 size=441 think=50 deadline=40\n");
  const auto a = run_scenario(text);
  const auto b = run_scenario(text);
  EXPECT_EQ(a.flow_stats[0].completed, b.flow_stats[0].completed);
  EXPECT_DOUBLE_EQ(a.flow_stats[0].fct_mean, b.flow_stats[0].fct_mean);
  EXPECT_EQ(a.total_exits, b.total_exits);
  const auto c = run_scenario(text, 77u);
  EXPECT_NE(a.total_exits, c.total_exits);
}

TEST(ScenarioFlowsRun, UsersOverrideScalesTheWorkload) {
  const auto text = flows_scenario(
      "flows r class=0 users=2 size=441 think=50\n");
  ScenarioOptions more;
  more.users = 16;
  const auto small = run_scenario(text, ScenarioOptions{});
  const auto big = run_scenario(text, more);
  EXPECT_EQ(big.flow_stats[0].users, 16u);
  EXPECT_GT(big.flow_stats[0].completed, 2 * small.flow_stats[0].completed);
}

TEST(ScenarioFlowsRun, RetriesRecoverFromAnOutage) {
  // Without retries an outage strands closed-loop users (their requests
  // are dropped and nothing ever answers); with retries the loop recovers
  // and completes far more RPCs.
  const auto stuck_text = flows_scenario(
      "flows r class=0 users=4 size=441 think=50\n");
  const auto retry_text = flows_scenario(
      "flows r class=0 users=4 size=441 think=50 "
      "rto=100 retries=6 backoff=2 rto_cap=800\n");
  ScenarioOptions options;
  options.fault_plan = "down n0>n1 at=5000 for=1000 mode=drop\n";
  const auto stuck = run_scenario(stuck_text, options);
  const auto retried = run_scenario(retry_text, options);
  EXPECT_TRUE(stuck.faulted);
  EXPECT_GT(retried.flow_stats[0].retries, 0u);
  // All four stuck users are stranded by t=5000+eps; the retrying run
  // keeps completing for the remaining 15000 tu.
  EXPECT_GT(retried.flow_stats[0].completed,
            2 * stuck.flow_stats[0].completed);
}

TEST(ScenarioFlowsRun, ThrottleBudgetSuppressesRetryStorms) {
  // A long outage with fast retries: an unthrottled workload burns a
  // retry storm into the dead link; a throttled one stops retrying once
  // the token budget drains below half.
  const auto unthrottled_text = flows_scenario(
      "flows r class=0 users=8 size=441 think=20 "
      "rto=50 retries=8 backoff=1 rto_cap=50\n");
  const auto throttled_text = flows_scenario(
      "flows r class=0 users=8 size=441 think=20 "
      "rto=50 retries=8 backoff=1 rto_cap=50 "
      "throttle=10 throttle_ratio=0.5\n");
  ScenarioOptions options;
  options.fault_plan = "down n0>n1 at=2000 for=12000 mode=drop\n";
  const auto open = run_scenario(unthrottled_text, options);
  const auto gated = run_scenario(throttled_text, options);
  EXPECT_EQ(open.flow_stats[0].throttled, 0u);
  EXPECT_GT(gated.flow_stats[0].throttled, 0u);
  EXPECT_LT(gated.flow_stats[0].retries, open.flow_stats[0].retries / 2);
  // Both still fail RPCs during the outage (the loop stays alive).
  EXPECT_GT(gated.flow_stats[0].failed, 0u);
}

TEST(ScenarioFlowsRun, TwoWorkloadsShareARouteWithoutCrosstalk) {
  const auto report = run_scenario(flows_scenario(
      "flows r class=0 users=3 size=441 think=60\n"
      "flows r class=0 users=5 size=200 think=60\n"));
  ASSERT_EQ(report.flow_stats.size(), 2u);
  EXPECT_EQ(report.flow_stats[0].users, 3u);
  EXPECT_EQ(report.flow_stats[1].users, 5u);
  EXPECT_GT(report.flow_stats[0].completed, 0u);
  EXPECT_GT(report.flow_stats[1].completed, 0u);
  EXPECT_EQ(report.flow_stats[0].failed, 0u);
  EXPECT_EQ(report.flow_stats[1].failed, 0u);
}

TEST(ScenarioFlowsRun, ExplicitReverseRouteCarriesTheResponses) {
  const char* text =
      "link up capacity=100 sched=fcfs sdp=1\n"
      "link down capacity=100 sched=fcfs sdp=1\n"
      "route fwd up\n"
      "route rev down\n"
      "flows fwd class=0 users=2 size=441 think=50 reverse=rev\n"
      "run until=10000 warmup=500 seed=2\n";
  const auto report = run_scenario(text);
  ASSERT_EQ(report.flow_stats.size(), 1u);
  EXPECT_GT(report.flow_stats[0].completed, 50u);
  // Responses flowed over `down`.
  EXPECT_GT(report.link_stats[1].packets_sent, 50u);
}

}  // namespace
}  // namespace pds
