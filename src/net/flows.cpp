#include "net/flows.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pds {

namespace {
// The low half of kNoFlow: no user id or attempt number takes it.
constexpr std::uint32_t kNoFlowUser = ~std::uint32_t{0};
// Attempts reserved per user up front: enough for every retry of the
// shipped scenarios, so the run phase never grows a user's attempt list.
constexpr std::uint32_t kReservedAttempts = 8;
}  // namespace

std::uint32_t FlowIdAllocator::reserve(std::uint32_t count) {
  PDS_CHECK(count <= kNoFlowUser - next_, "too many flow users in one run");
  const std::uint32_t first = next_;
  next_ += count;
  return first;
}

void RpcConfig::validate() const {
  PDS_CHECK(users >= 1, "flows need at least one user");
  PDS_CHECK(request_packets >= 1, "request needs at least one packet");
  PDS_CHECK(response_packets >= 1, "response needs at least one packet");
  PDS_CHECK(size_bytes >= 1, "flow packets need a positive size");
  PDS_CHECK(think_mean >= 0.0, "think time must be non-negative");
  PDS_CHECK(deadline >= 0.0, "deadline must be non-negative");
  PDS_CHECK(rto >= 0.0, "rto must be non-negative");
  PDS_CHECK(max_retries == 0 || rto > 0.0,
            "retries need a positive rto");
  PDS_CHECK(backoff >= 1.0, "backoff multiplier must be >= 1");
  PDS_CHECK(rto_cap >= 0.0, "rto cap must be non-negative");
  PDS_CHECK(throttle_tokens >= 0.0, "throttle tokens must be non-negative");
  PDS_CHECK(throttle_ratio > 0.0 || throttle_tokens == 0.0,
            "throttle ratio must be positive when throttling");
}

RpcWorkload::RpcWorkload(Simulator& sim, Network& net, PacketIdAllocator& ids,
                         FlowIdAllocator& flows, RouteId forward,
                         RouteId reverse, RpcConfig config, Rng rng)
    : sim_(sim),
      net_(net),
      ids_(ids),
      flows_(flows),
      forward_(forward),
      reverse_(reverse),
      config_(config),
      rto_cap_(config.rto_cap > 0.0 ? config.rto_cap : 10.0 * config.rto),
      think_(ExponentialDist(config.think_mean > 0.0 ? config.think_mean
                                                     : 1.0)),
      tokens_(config.throttle_tokens) {
  config_.validate();
  PDS_CHECK(forward < net.num_routes() && reverse < net.num_routes(),
            "flows reference unknown routes");
  first_flow_ = flows.reserve(config_.users);
  users_.reserve(config_.users);
  // Per-user streams split in user order — byte-reproducible from the seed.
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    User user;
    user.rng = rng.split();
    user.attempts.reserve(
        std::min(config_.max_retries + 1, kReservedAttempts));
    users_.push_back(std::move(user));
  }
}

void RpcWorkload::start(SimTime at) {
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    const double phase =
        config_.think_mean > 0.0 ? think_.sample(users_[u].rng) : 0.0;
    sim_.schedule_at(at + phase, [this, u] { issue_rpc(u); }, "flow.issue");
  }
}

void RpcWorkload::schedule_think(std::uint32_t user) {
  const double gap =
      config_.think_mean > 0.0 ? think_.sample(users_[user].rng) : 0.0;
  sim_.schedule_in(gap, [this, user] { issue_rpc(user); }, "flow.issue");
}

void RpcWorkload::issue_rpc(std::uint32_t user) {
  User& u = users_[user];
  PDS_REQUIRE(!u.waiting);
  u.waiting = true;
  ++waiting_;
  u.issue_time = sim_.now();
  u.first_attempt = u.next_attempt;
  u.cur_rto = config_.rto;
  ++stats_.issued;
  send_attempt(user);
}

void RpcWorkload::send_attempt(std::uint32_t user) {
  User& u = users_[user];
  PDS_CHECK(u.next_attempt != kNoFlowUser, "rpc attempt numbers exhausted");
  const FlowId flow =
      (static_cast<FlowId>(u.next_attempt++) << 32) | (first_flow_ + user);
  u.attempts.push_back(
      Attempt{config_.request_packets, config_.response_packets});
  for (std::uint32_t k = 0; k < config_.request_packets; ++k) {
    Packet p;
    p.id = ids_.next();
    p.cls = config_.cls;
    p.size_bytes = config_.size_bytes;
    p.flow = flow;
    p.created = sim_.now();
    net_.inject(std::move(p), forward_);
  }
  if (config_.rto > 0.0) {
    u.rto = sim_.schedule_in(
        u.cur_rto, [this, user] { on_timeout(user); }, "flow.rto");
  }
}

void RpcWorkload::on_route_exit(const Packet& p, SimTime now) {
  // Unsigned wrap sends ids below first_flow_ out of range too.
  const std::uint32_t user =
      static_cast<std::uint32_t>(p.flow) - first_flow_;
  if (user >= users_.size()) return;  // another workload's, or no flow
  User& u = users_[user];
  const std::uint32_t index = static_cast<std::uint32_t>(p.flow >> 32) -
                              u.first_attempt;
  if (!u.waiting || index >= u.attempts.size()) return;  // abandoned attempt
  Attempt& attempt = u.attempts[index];
  if (attempt.remaining_request > 0) {
    if (--attempt.remaining_request == 0) {
      // Server turnaround: the response leaves immediately with the same
      // flow id on the reverse route.
      const FlowId flow = p.flow;
      for (std::uint32_t k = 0; k < config_.response_packets; ++k) {
        Packet r;
        r.id = ids_.next();
        r.cls = config_.cls;
        r.size_bytes = config_.size_bytes;
        r.flow = flow;
        r.created = now;
        net_.inject(std::move(r), reverse_);
      }
    }
    return;
  }
  PDS_REQUIRE(attempt.remaining_response > 0);
  if (--attempt.remaining_response == 0) finish_rpc(user, true, now);
}

void RpcWorkload::on_timeout(std::uint32_t user) {
  User& u = users_[user];
  // Only the current attempt's timer is ever pending: finish_rpc cancels
  // it, and a retry arms the next one from here.
  PDS_REQUIRE(u.waiting);
  u.rto = EventHandle{};

  // A timeout is a failure signal: it always costs a throttle token
  // (grpc retry_filter semantics), whether or not a retry follows.
  const bool throttling = config_.throttle_tokens > 0.0;
  if (throttling) tokens_ = std::max(0.0, tokens_ - 1.0);

  const bool retries_left = u.attempts.size() <= config_.max_retries;
  const bool throttle_open =
      !throttling || tokens_ > config_.throttle_tokens / 2.0;
  if (retries_left && throttle_open) {
    ++stats_.retries;
    u.cur_rto = std::min(u.cur_rto * config_.backoff, rto_cap_);
    send_attempt(user);
    return;
  }
  if (retries_left) ++stats_.throttled;
  finish_rpc(user, false, sim_.now());
}

void RpcWorkload::finish_rpc(std::uint32_t user, bool completed,
                             SimTime now) {
  User& u = users_[user];
  PDS_REQUIRE(u.waiting);
  sim_.cancel(u.rto);
  u.rto = EventHandle{};
  u.attempts.clear();
  u.waiting = false;
  --waiting_;

  if (completed && config_.throttle_tokens > 0.0) {
    tokens_ = std::min(config_.throttle_tokens,
                       tokens_ + config_.throttle_ratio);
  }
  if (u.issue_time >= warmup_) {
    if (completed) {
      const double fct = now - u.issue_time;
      ++stats_.completed;
      stats_.fct.add(fct);
      if (config_.deadline <= 0.0 || fct <= config_.deadline) {
        ++stats_.slo_met;
      }
    } else {
      ++stats_.failed;
    }
  }
  schedule_think(user);
}

}  // namespace pds
