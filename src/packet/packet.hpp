// Packet record and service-class conventions.
//
// Class indices are 0-based internally. Following the paper's ordering,
// *higher* index means *higher* (better) class: class N-1 has the largest
// scheduler differentiation parameter s and the smallest target delay.
// Human-readable output converts to the paper's 1-based names where class 1
// is the lowest class.
#pragma once

#include <cstdint>

#include "dsim/time.hpp"

namespace pds {

using ClassId = std::uint32_t;
// 64 bits so an RPC attempt id can carry its user slot in the low half and
// the user's attempt number in the high half (net/flows.hpp).
using FlowId = std::uint64_t;
using RouteId = std::uint32_t;

inline constexpr FlowId kNoFlow = ~FlowId{0};
inline constexpr RouteId kNoRoute = ~RouteId{0};

struct Packet {
  std::uint64_t id = 0;           // unique per run, assigned by the source
  ClassId cls = 0;                // 0-based service class (higher = better)
  std::uint32_t size_bytes = 0;   // wire size
  FlowId flow = kNoFlow;          // owning flow, if any (Study B user flows)
  RouteId route = kNoRoute;       // path through a net::Network, if routed
  std::uint32_t hops_done = 0;    // number of hops already traversed
  SimTime created = kTimeZero;    // emission time at the original source
  SimTime arrival = kTimeZero;    // arrival at the *current* hop's queue
  SimTime cum_queueing = 0.0;     // accumulated queueing delay over past hops
};

static_assert(sizeof(Packet) == 56, "Packet should stay 56 bytes");

// Paper's 1-based class label for reports: internal index i corresponds to
// paper "class i+1" (class 1 is the lowest class in both conventions).
inline int paper_class_label(ClassId internal) {
  return static_cast<int>(internal) + 1;
}

}  // namespace pds
