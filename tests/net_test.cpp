#include <gtest/gtest.h>

#include <cstring>

#include "net/topology.hpp"
#include "net/study_b.hpp"

namespace pds {
namespace {

SchedulerConfig wtp_config() {
  SchedulerConfig c;
  c.sdp = {1.0, 2.0};
  c.link_capacity = 100.0;
  return c;
}

Packet make_packet(std::uint64_t id, ClassId cls) {
  Packet p;
  p.id = id;
  p.cls = cls;
  p.size_bytes = 100;
  return p;
}

// Study B's shape on a Network: one user route over every hop and one
// single-link cross route per hop.
struct LineNetwork {
  LineNetwork(Simulator& sim, std::uint32_t hops) : net(sim) {
    std::vector<LinkId> path;
    for (std::uint32_t h = 0; h < hops; ++h) {
      path.push_back(net.add_link(SchedulerKind::kWtp, wtp_config(), 100.0));
    }
    user = net.add_route(path, [this](const Packet& p, SimTime) {
      user_exits.push_back(p);
    });
    for (const LinkId link : path) {
      cross.push_back(net.add_route({link}, [this](const Packet&, SimTime) {
        ++cross_exits;
      }));
    }
  }

  Network net;
  RouteId user = 0;
  std::vector<RouteId> cross;
  std::vector<Packet> user_exits;
  std::uint64_t cross_exits = 0;
};

// The ChainNetwork tests check Study B's chain shape, now built as a
// LineNetwork.
TEST(ChainNetwork, UserPacketTraversesEveryHop) {
  Simulator sim;
  LineNetwork line(sim, 3);
  Packet p = make_packet(1, 0);
  p.flow = 5;
  sim.schedule_at(0.0,
                  [&] { line.net.inject(std::move(p), line.user); });
  sim.run();
  ASSERT_EQ(line.user_exits.size(), 1u);
  EXPECT_EQ(line.user_exits[0].hops_done, 3u);
  EXPECT_EQ(line.user_exits[0].flow, 5u);
  // Uncontended path: zero queueing at every hop.
  EXPECT_DOUBLE_EQ(line.user_exits[0].cum_queueing, 0.0);
  EXPECT_EQ(line.cross_exits, 0u);
}

TEST(ChainNetwork, QueueingAccumulatesAcrossHops) {
  Simulator sim;
  LineNetwork line(sim, 2);
  // Two user packets back-to-back: the second queues behind the first at
  // hop 0 only; at hop 1 they arrive spaced by one transmission time, so
  // its total wait is 1 tu.
  sim.schedule_at(0.0, [&] {
    line.net.inject(make_packet(1, 0), line.user);
    line.net.inject(make_packet(2, 0), line.user);
  });
  sim.run();
  ASSERT_EQ(line.user_exits.size(), 2u);
  EXPECT_DOUBLE_EQ(line.user_exits[0].cum_queueing, 0.0);
  EXPECT_DOUBLE_EQ(line.user_exits[1].cum_queueing, 1.0);
}

TEST(ChainNetwork, ValidatesInputs) {
  Simulator sim;
  LineNetwork line(sim, 2);
  // A chain of zero hops is an empty route.
  EXPECT_THROW(line.net.add_route({}, [](const Packet&, SimTime) {}),
               std::invalid_argument);
  // Cross traffic at a hop the chain does not have names no route.
  const RouteId no_such_hop = line.cross.back() + 5;
  EXPECT_THROW(line.net.inject(make_packet(1, 1), no_such_hop),
               std::invalid_argument);
  // A packet that already travelled cannot enter the chain again.
  Packet travelled = make_packet(2, 0);
  travelled.hops_done = 1;
  EXPECT_THROW(line.net.inject(std::move(travelled), line.user),
               std::invalid_argument);
}

TEST(LineNetwork, CrossTrafficExitsAfterOneHop) {
  Simulator sim;
  LineNetwork line(sim, 3);
  sim.schedule_at(0.0,
                  [&] { line.net.inject(make_packet(2, 1), line.cross[1]); });
  sim.run();
  EXPECT_TRUE(line.user_exits.empty());  // cross traffic never reaches it
  EXPECT_EQ(line.cross_exits, 1u);
  EXPECT_EQ(line.net.link(1).packets_sent(), 1u);
  EXPECT_EQ(line.net.link(0).packets_sent(), 0u);
  EXPECT_EQ(line.net.link(2).packets_sent(), 0u);
}

TEST(LineNetwork, DepartureObserverSeesEveryDeparture) {
  Simulator sim;
  LineNetwork line(sim, 2);
  std::vector<std::tuple<LinkId, std::uint64_t, double>> seen;
  line.net.set_departure_observer(
      [&](LinkId link, const Packet& p, SimTime wait, SimTime) {
        seen.emplace_back(link, p.id, wait);
      });
  sim.schedule_at(0.0, [&] {
    line.net.inject(make_packet(1, 0), line.user);      // links 0 and 1
    line.net.inject(make_packet(2, 1), line.cross[1]);  // link 1 only
  });
  sim.run();
  // User packet: 2 observations; cross packet: 1.
  ASSERT_EQ(seen.size(), 3u);
  int user_hits = 0, cross_hits = 0;
  for (const auto& [link, id, wait] : seen) {
    EXPECT_GE(wait, 0.0);
    (id == 1 ? user_hits : cross_hits)++;
    EXPECT_LT(link, 2u);
  }
  EXPECT_EQ(user_hits, 2);
  EXPECT_EQ(cross_hits, 1);
  ASSERT_EQ(line.user_exits.size(), 1u);
  EXPECT_EQ(line.user_exits[0].hops_done, 2u);
}

// ------------------------------------------------------------- Study B

StudyBConfig quick_b() {
  StudyBConfig c;
  c.hops = 2;
  c.user_experiments = 10;
  c.warmup_s = 3.0;
  c.utilization = 0.9;
  c.seed = 3;
  return c;
}

TEST(StudyB, AllFlowsCompleteAndRdIsPlausible) {
  const auto r = run_study_b(quick_b());
  EXPECT_EQ(r.experiments, 10u);
  // WTP at rho = 0.9 over 2 hops: the end-to-end ratio must land in the
  // right neighbourhood of the ideal 2.0.
  EXPECT_GT(r.rd, 1.2);
  EXPECT_LT(r.rd, 3.2);
  ASSERT_EQ(r.mean_e2e_delay_per_class.size(), 4u);
  // Monotone class ordering of mean end-to-end delays.
  for (std::size_t c = 0; c + 1 < 4; ++c) {
    EXPECT_GT(r.mean_e2e_delay_per_class[c],
              r.mean_e2e_delay_per_class[c + 1]);
  }
}

TEST(StudyB, UtilizationIsCalibratedPerHop) {
  auto cfg = quick_b();
  cfg.utilization = 0.85;
  cfg.user_experiments = 8;
  const auto r = run_study_b(cfg);
  ASSERT_EQ(r.mean_utilization_per_hop.size(), 2u);
  for (const double u : r.mean_utilization_per_hop) {
    EXPECT_NEAR(u, 0.85, 0.12);
  }
}

TEST(StudyB, PercentileListMatchesPaper) {
  const auto& ps = study_b_percentiles();
  ASSERT_EQ(ps.size(), 10u);
  EXPECT_DOUBLE_EQ(ps.front(), 10.0);
  EXPECT_DOUBLE_EQ(ps[8], 90.0);
  EXPECT_DOUBLE_EQ(ps.back(), 99.0);
}

TEST(StudyB, ValidatesConfig) {
  auto c = quick_b();
  c.utilization = 0.0;
  EXPECT_THROW(run_study_b(c), std::invalid_argument);
  c = quick_b();
  c.cross_mix = {1.0};
  EXPECT_THROW(run_study_b(c), std::invalid_argument);
  c = quick_b();
  c.hops = 0;
  EXPECT_THROW(run_study_b(c), std::invalid_argument);
  c = quick_b();
  // User flows alone exceeding the utilization target must be rejected.
  c.flow_rate_kbps = 50.0;
  c.flow_packets = 20000;
  EXPECT_THROW(run_study_b(c), std::invalid_argument);
}

TEST(StudyB, DeterministicPerSeed) {
  const auto a = run_study_b(quick_b());
  const auto b = run_study_b(quick_b());
  EXPECT_DOUBLE_EQ(a.rd, b.rd);
  EXPECT_EQ(a.inconsistent_experiments, b.inconsistent_experiments);
}

TEST(StudyB, PerHopStatsAreCoherent) {
  const auto r = run_study_b(quick_b());
  ASSERT_EQ(r.per_hop_class_delay.size(), 2u);
  ASSERT_EQ(r.per_hop_rd.size(), 2u);
  for (std::uint32_t h = 0; h < 2; ++h) {
    // Per-hop class delays ordered (higher class = lower delay) and the
    // per-hop ratio in a heavy-load WTP band.
    for (std::size_t c = 0; c + 1 < 4; ++c) {
      EXPECT_GT(r.per_hop_class_delay[h][c],
                r.per_hop_class_delay[h][c + 1]);
    }
    EXPECT_GT(r.per_hop_rd[h], 1.3);
    EXPECT_LT(r.per_hop_rd[h], 2.6);
  }
}

// Pins every StudyBResult field at a small config: FNV-1a over the exact
// bytes of each number, in declaration order. Recorded on the original
// chain substrate, so the routed Network must reproduce Study B bit for bit.
TEST(StudyB, GoldenHashPinsEveryField) {
  constexpr std::uint64_t kGoldenFnv1a = 0x6e16158e132d17d1ULL;
  const auto r = run_study_b(quick_b());
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&hash](const auto& value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(r.rd);
  mix(r.experiments);
  mix(r.inconsistent_experiments);
  mix(r.inconsistent_pairs);
  mix(r.worst_violation_s);
  mix(r.skipped_ratio_terms);
  for (const double d : r.mean_e2e_delay_per_class) mix(d);
  for (const double u : r.mean_utilization_per_hop) mix(u);
  for (const auto& hop : r.per_hop_class_delay) {
    for (const double d : hop) mix(d);
  }
  for (const double rd : r.per_hop_rd) mix(rd);
  EXPECT_EQ(hash, kGoldenFnv1a) << "got 0x" << std::hex << hash;
}

TEST(StudyB, MoreHopsSmoothTheRatio) {
  // Paper Table 1: deviations cancel over more hops, pulling R_D toward
  // the ideal 2.0. Test the weaker, robust form: both settings stay in a
  // sane band and produce consistent output sizes.
  auto c4 = quick_b();
  c4.hops = 4;
  c4.user_experiments = 8;
  const auto r = run_study_b(c4);
  EXPECT_GT(r.rd, 1.2);
  EXPECT_LT(r.rd, 3.2);
  ASSERT_EQ(r.mean_utilization_per_hop.size(), 4u);
}

}  // namespace
}  // namespace pds
