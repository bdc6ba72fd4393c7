// Stateless 64-bit mixing for deterministic sampling decisions.
//
// mix64 is the SplitMix64 finalizer: a bijective, well-avalanched mix, so a
// sampling decision can be a pure function of (key, seed) with no generator
// state to carry or perturb. The probe admission filter (which is the
// packet tracer's per-packet sampling decision) and the profiler's
// per-label jitter both draw from it.
#pragma once

#include <cstdint>

namespace pds {

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace pds
