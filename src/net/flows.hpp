// Closed-loop RPC flow layer over the routed Network fabric.
//
// The paper's traffic plane is open-loop packet streams; production traffic
// is closed-loop users running request/response RPCs. An RpcWorkload models
// N users of one service class on a (forward, reverse) route pair. Each
// user loops forever:
//
//   think ~ Exp(think_mean)  ->  issue RPC  ->  wait for the response  ->  ...
//
// An RPC attempt injects `request_packets` packets (one flow id per
// attempt) on the forward route; when the last request packet exits, the
// "server" immediately injects `response_packets` packets with the same
// flow id on the reverse route; when the last response packet exits, the
// RPC completes. Flow-completion time (FCT) is measured from the FIRST
// attempt's issue to completion, and the per-class SLO is attained when
// FCT <= deadline.
//
// Retries (exemplar: grpc's retry_filter): an optional retry timer of
// `rto` arms with each attempt. On expiry the user retries with
// exponential backoff (rto *= backoff, capped at rto_cap) up to
// max_retries times, gated by a retry-throttle token budget: every timeout
// costs one token, every success restores throttle_ratio tokens (capped at
// throttle_tokens), and retries are permitted only while the budget is
// above half full — so retry storms self-extinguish instead of amplifying
// an overload. When no retry is permitted (retries exhausted or throttle
// blocked) the RPC fails: it scores as an SLO miss and the user moves on,
// which keeps the closed loop alive even when a fault outage drops every
// copy of a request.
//
// Each workload reserves one id per user from a shared FlowIdAllocator, so
// multiple workloads can share routes. An attempt's FlowId is that user id
// in the low 32 bits and the user's attempt number in the high 32, so an
// exiting packet finds its user's slot by subtraction and its attempt by
// offset, with no per-attempt allocation; packets of abandoned attempts
// fall outside the current RPC's attempt range and are ignored. A completed
// RPC cancels its pending retry timer, so no stale timer ever runs. All
// timing comes from Simulator events and all randomness from the per-user
// Rng streams split off the workload Rng at construction — runs are
// byte-reproducible from the scenario seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "rng/distributions.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"

namespace pds {

// Shared monotone counter of per-user flow ids, so attempt ids are unique
// across every workload of a run (mirrors PacketIdAllocator).
class FlowIdAllocator {
 public:
  // First of `count` consecutive user ids. Every id stays below 2^32 - 1,
  // so no attempt id can equal kNoFlow.
  std::uint32_t reserve(std::uint32_t count);

 private:
  std::uint32_t next_ = 0;
};

struct RpcConfig {
  ClassId cls = 0;
  std::uint32_t users = 1;
  std::uint32_t request_packets = 1;   // k packets per request
  std::uint32_t response_packets = 1;  // k packets per response
  std::uint32_t size_bytes = 441;     // wire size of every flow packet
  double think_mean = 0.0;            // Exp mean between RPCs; 0 = saturating
  double deadline = 0.0;              // SLO deadline on FCT; 0 = no deadline
  double rto = 0.0;                   // initial retry timeout; 0 = no retries
  std::uint32_t max_retries = 0;      // extra attempts beyond the first
  double backoff = 2.0;               // rto multiplier per retry
  double rto_cap = 0.0;               // backoff ceiling; 0 = 10 * rto
  double throttle_tokens = 0.0;       // token budget; 0 = throttle disabled
  double throttle_ratio = 0.1;        // tokens restored per success

  // Throws std::invalid_argument on nonsensical combinations.
  void validate() const;
};

// Counters and FCT samples. completed/failed/slo_met and the FCT set cover
// only *scored* RPCs (first issue at or after the warmup horizon); issued
// counts every RPC regardless.
struct RpcStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;   // scored completions
  std::uint64_t failed = 0;      // scored failures (retries exhausted/throttled)
  std::uint64_t slo_met = 0;     // scored completions with FCT <= deadline
  std::uint64_t retries = 0;     // retry attempts sent (all, scored or not)
  std::uint64_t throttled = 0;   // retries suppressed by the token budget
  SampleSet fct;                 // scored completion times

  std::uint64_t scored() const noexcept { return completed + failed; }
  // SLO attainment over scored RPCs; 1.0 when nothing scored yet.
  double slo_attainment() const noexcept {
    return scored() == 0 ? 1.0
                         : static_cast<double>(slo_met) /
                               static_cast<double>(scored());
  }
};

class RpcWorkload {
 public:
  // `forward` and `reverse` must be routes of `net`; they may coincide
  // (request exits are counted before any response is injected). The
  // workload must outlive the simulation run (scheduled events capture
  // `this`).
  RpcWorkload(Simulator& sim, Network& net, PacketIdAllocator& ids,
              FlowIdAllocator& flows, RouteId forward, RouteId reverse,
              RpcConfig config, Rng rng);

  RpcWorkload(const RpcWorkload&) = delete;
  RpcWorkload& operator=(const RpcWorkload&) = delete;

  // Schedules every user's first RPC at `at` plus one think draw (a phase
  // draw, so users do not align). Call once before running.
  void start(SimTime at);

  // RPCs whose first attempt is issued before `t` are excluded from
  // completed/failed/slo/FCT scoring (default 0 = score everything).
  void set_warmup(SimTime t) noexcept { warmup_ = t; }

  // Exit hook: call for EVERY packet leaving the forward or reverse route
  // (the scenario runner folds this into the routes' exit handlers).
  // Packets of unknown flows — other workloads, abandoned attempts — are
  // ignored.
  void on_route_exit(const Packet& p, SimTime now);

  const RpcConfig& config() const noexcept { return config_; }
  const RpcStats& stats() const noexcept { return stats_; }
  // Users currently waiting on an outstanding RPC.
  std::uint32_t waiting_users() const noexcept { return waiting_; }
  double throttle_balance() const noexcept { return tokens_; }

 private:
  struct Attempt {
    std::uint32_t remaining_request = 0;
    std::uint32_t remaining_response = 0;
  };
  struct User {
    Rng rng;
    bool waiting = false;
    SimTime issue_time = kTimeZero;
    double cur_rto = 0.0;
    // Attempt numbers count every attempt this user ever sent; the current
    // RPC's attempts are numbered [first_attempt, first_attempt +
    // attempts.size()).
    std::uint32_t first_attempt = 0;
    std::uint32_t next_attempt = 0;
    std::vector<Attempt> attempts;  // the current RPC's, oldest first
    EventHandle rto;                // the pending retry timer, if any
  };

  void schedule_think(std::uint32_t user);
  void issue_rpc(std::uint32_t user);
  void send_attempt(std::uint32_t user);
  void on_timeout(std::uint32_t user);
  void finish_rpc(std::uint32_t user, bool completed, SimTime now);

  Simulator& sim_;
  Network& net_;
  PacketIdAllocator& ids_;
  FlowIdAllocator& flows_;
  RouteId forward_;
  RouteId reverse_;
  RpcConfig config_;
  double rto_cap_ = 0.0;
  ExponentialDist think_;
  std::uint32_t first_flow_ = 0;  // users_[u]'s id is first_flow_ + u
  std::vector<User> users_;
  RpcStats stats_;
  SimTime warmup_ = kTimeZero;
  double tokens_ = 0.0;
  std::uint32_t waiting_ = 0;
};

}  // namespace pds
