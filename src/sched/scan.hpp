// Vectorized priority-scan kernels for the per-dequeue argmax/argmin that
// every proportional scheduler runs over the flat ClassHead snapshot.
//
// PR 5 flattened MultiClassBacklog into a contiguous per-class array; these
// kernels exploit that layout. MultiClassBacklog maintains, next to the
// ClassHead records, a structure-of-arrays mirror (head arrival, head wire
// size as a double, and a backlogged lane mask) padded to a multiple of
// kLanes, so a dequeue decision is one branch-light pass of 2–4-wide double
// arithmetic instead of a scalar loop with a branch per class.
//
// Determinism contract: every backend (scalar, SSE2, AVX2) produces the SAME
// winner for the SAME inputs, bit for bit. The SIMD paths use only IEEE-exact
// lane operations (mul/add/sub/div — never FMA; scan.cpp is compiled with
// -ffp-contract=off so the scalar path cannot be contracted either), and the
// tie-break is the paper's: among classes attaining the best priority, the
// HIGHEST class index wins (the scalar loops scan ascending and update on
// `>=` / `<=`). tests/scan_test.cpp fuzzes scalar-vs-SIMD equivalence and
// check.sh re-runs the dispatch-equivalence suite with -DPDS_SIMD=OFF.
//
// Backend selection: compile-time gate (PDS_SIMD CMake option; off means
// every call resolves to the scalar kernel) plus a one-shot runtime CPUID
// probe that picks AVX2 over SSE2 when the host supports it. Schedulers can
// force a backend for differential testing via
// ClassBasedScheduler::set_scan_backend.
#pragma once

#include <cstdint>

#include "packet/packet.hpp"

namespace pds::scan {

// Lane padding granularity of every array the kernels read. All SoA arrays
// (arrival/head_bytes/mask from MultiClassBacklog, plus the per-scheduler
// sdp/cum/served/rates/virtual-service vectors) hold `padded(n)` entries;
// lanes at index >= n carry mask 0 and value 0.0.
inline constexpr std::uint32_t kLanes = 4;

inline constexpr std::uint32_t padded_lanes(std::uint32_t n) noexcept {
  return (n + (kLanes - 1)) & ~(kLanes - 1);
}

// Read-only view of the backlog's head-of-line SoA mirror.
struct Heads {
  const double* arrival;          // head arrival time; 0.0 when idle
  const double* head_bytes;       // head wire size as double; 0.0 when idle
  const std::uint64_t* mask;      // all-ones when backlogged, 0 when idle
  std::uint32_t n;                // real class count
  std::uint32_t lanes;            // padded_lanes(n)
};

enum class Backend : std::uint8_t {
  kAuto,    // best compiled-in + CPU-supported backend for the scan width:
            // scalar for small head arrays (<= 8 padded lanes, where the
            // predictable scalar loop wins) or when PDS_SIMD=OFF, vector
            // kernels beyond that
  kScalar,  // force the scalar reference kernels
  kSimd,    // force the SIMD kernels (falls back to scalar when unavailable)
};

// True when a SIMD backend is compiled in and the CPU supports it.
bool simd_available() noexcept;

// Name of the backend a given request resolves to: "scalar", "sse2", "avx2".
const char* backend_name(Backend backend) noexcept;

// All selectors require at least one backlogged class (callers gate on
// MultiClassBacklog::empty()) and return the winning class index under the
// tie-break above.

// WTP (Eq. 11): argmax over backlogged c of (now - arrival[c]) * sdp[c].
ClassId wtp_select(const Heads& heads, const double* sdp, double now,
                   Backend backend);

// Additive differentiation: argmax of (now - arrival[c]) + sdp[c].
ClassId additive_select(const Heads& heads, const double* sdp, double now,
                        Backend backend);

// PAD: argmax of ((cum[c] + (now - arrival[c])) / (served[c] + 1)) * sdp[c].
// `served` is the served-packet count mirrored as doubles (exact below 2^53).
ClassId pad_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now, Backend backend);

// HPD: argmax of g * wtp_term + (1 - g) * pad_term (terms as above).
ClassId hpd_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now, double g,
                   Backend backend);

// BPR: updates the per-class virtual service in place — 0 for idle classes
// and for heads that reached the front after the last departure, otherwise
// vs[c] += rates[c] * elapsed — then returns the argmin over backlogged c of
// head_bytes[c] - vs[c] (least remaining virtual work, ties to the highest
// class). `vs` must hold heads.lanes entries; pad lanes are zeroed.
ClassId bpr_select(const Heads& heads, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure,
                   Backend backend);

}  // namespace pds::scan
