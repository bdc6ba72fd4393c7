// Priority-scan kernels: scalar reference plus SSE2/AVX2 SIMD variants.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/sched/CMakeLists.txt): the scalar kernels are the bit-exactness
// reference for every SIMD lane, so the compiler must not contract their
// mul+add sequences into FMAs the vector paths do not use.
//
// The AVX2 kernels carry GCC/Clang `target("avx2")` attributes so the file
// builds with the baseline x86-64 flag set; a one-shot CPUID probe routes
// kAuto to the widest supported backend. Everything funnels through the same
// shape: (1) compute the per-lane criterion with IEEE-exact lane ops, forcing
// idle lanes to -inf (argmax) or +inf (argmin) with a bitwise blend, while
// accumulating a vertical best; (2) reduce to the scalar best; (3) walk the
// stashed lane criteria from the highest block down and pick the highest lane
// that attains the best — the paper's tie-break (ties go to the higher
// class).
#include "sched/scan.hpp"

#include <limits>

#include "util/contracts.hpp"

#ifndef PDS_SIMD_ENABLED
#define PDS_SIMD_ENABLED 0
#endif

#if PDS_SIMD_ENABLED && (defined(__x86_64__) || defined(_M_X64))
#define PDS_SCAN_X86 1
#include <immintrin.h>
#else
#define PDS_SCAN_X86 0
#endif

namespace pds::scan {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

// Criterion values are stashed per lane so the tie-break pass can re-find
// the winner; bounded so the stash lives on the stack. Class counts beyond
// this fall back to the scalar kernels (they have no such bound).
constexpr std::uint32_t kMaxSimdLanes = 256;

// kAuto takes the scalar kernel at or below this many (padded) lanes. A
// two-to-eight-class scan is a handful of perfectly predicted scalar
// iterations; the vector path's fixed overhead — lane loads, mask blends,
// the criterion stash, the movemask tie-break walk — costs more than it
// saves there (measured 25-45% slower at n <= 8 on the bench host, parity
// at n = 16). Explicit Backend::kSimd still forces the vector kernels at
// any size: the differential tests drive both implementations directly.
constexpr std::uint32_t kAutoScalarMaxLanes = 8;

// ---------------------------------------------------------------------------
// Scalar reference kernels — the exact arithmetic the schedulers inlined
// before this refactor, preserved expression for expression: the golden
// Study A trace hash pins their decisions.
// ---------------------------------------------------------------------------

ClassId wtp_scalar(const Heads& h, const double* sdp, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.mask[c] == 0) continue;
    const double wait = now - h.arrival[c];
    PDS_REQUIRE(wait >= 0.0);
    const double p = wait * sdp[c];
    if (!found || p >= best_priority) {  // >=: tie goes to the higher class
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId additive_scalar(const Heads& h, const double* sdp, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.mask[c] == 0) continue;
    const double wait = now - h.arrival[c];
    PDS_REQUIRE(wait >= 0.0);
    const double p = wait + sdp[c];
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId pad_scalar(const Heads& h, const double* sdp, const double* cum,
                   const double* served, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.mask[c] == 0) continue;
    const double sum = cum[c] + (now - h.arrival[c]);
    const double n = served[c] + 1.0;
    const double p = (sum / n) * sdp[c];
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId hpd_scalar(const Heads& h, const double* sdp, const double* cum,
                   const double* served, double now, double g) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.mask[c] == 0) continue;
    const double head_wait = now - h.arrival[c];
    const double wtp_part = head_wait * sdp[c];
    const double sum = cum[c] + head_wait;
    const double n = served[c] + 1.0;
    const double pad_part = (sum / n) * sdp[c];
    const double p = g * wtp_part + (1.0 - g) * pad_part;
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId bpr_scalar(const Heads& h, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure) {
  bool found = false;
  ClassId best = 0;
  double best_remaining = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.mask[c] == 0) {
      vs[c] = 0.0;
      continue;
    }
    if (!any_departure || h.arrival[c] > last_departure) {
      vs[c] = 0.0;  // head reached the front after t^{k-1}
    } else {
      vs[c] += rates[c] * elapsed;
    }
    const double remaining = h.head_bytes[c] - vs[c];
    if (!found || remaining <= best_remaining) {  // <=: tie to higher class
      found = true;
      best = c;
      best_remaining = remaining;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

#if PDS_SCAN_X86

// ---------------------------------------------------------------------------
// Backend probe
// ---------------------------------------------------------------------------

enum Level : int { kLevelScalar = 0, kLevelSse2 = 1, kLevelAvx2 = 2 };

int detect_level() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return kLevelAvx2;
#endif
  return kLevelSse2;  // SSE2 is the x86-64 baseline
}

int best_level() noexcept {
  static const int level = detect_level();
  return level;
}

// ---------------------------------------------------------------------------
// SSE2 kernels (2 lanes)
// ---------------------------------------------------------------------------

// Bitwise select: lane = mask ? value : fill. SSE2 has no blendv, so use
// and/andnot; the mask arrays hold all-ones/all-zero lane masks.
inline __m128d select2(__m128d mask, __m128d value, __m128d fill) {
  return _mm_or_pd(_mm_and_pd(mask, value), _mm_andnot_pd(mask, fill));
}

// Highest lane index attaining `best` over the stashed criteria, scanning
// blocks from the top. `best` is bit-exactly one of the stashed values, so
// EQ always fires at least once.
ClassId pick_highest_eq2(const double* crit, std::uint32_t lanes,
                         double best) {
  const __m128d vbest = _mm_set1_pd(best);
  for (std::uint32_t i = lanes; i != 0; i -= 2) {
    const __m128d v = _mm_loadu_pd(crit + i - 2);
    const int m = _mm_movemask_pd(_mm_cmpeq_pd(v, vbest));
    if (m != 0) {
      return static_cast<ClassId>(i - 2 +
                                  static_cast<std::uint32_t>(31 - __builtin_clz(
                                      static_cast<unsigned>(m))));
    }
  }
  PDS_REQUIRE(false);
}

double hmax2(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_max_sd(v, hi));
}

double hmin2(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_min_sd(v, hi));
}

ClassId wtp_sse2(const Heads& h, const double* sdp, double now) {
  alignas(16) double crit[kMaxSimdLanes];
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d vneg = _mm_set1_pd(kNegInf);
  const __m128d vzero = _mm_setzero_pd();
  __m128d vbest = vneg;
  int bad = 0;
  for (std::uint32_t i = 0; i < h.lanes; i += 2) {
    const __m128d mask =
        _mm_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m128d wait = _mm_sub_pd(vnow, _mm_loadu_pd(h.arrival + i));
    bad |= _mm_movemask_pd(
        _mm_and_pd(mask, _mm_cmplt_pd(wait, vzero)));
    const __m128d p = _mm_mul_pd(wait, _mm_loadu_pd(sdp + i));
    const __m128d masked = select2(mask, p, vneg);
    _mm_storeu_pd(crit + i, masked);
    vbest = _mm_max_pd(vbest, masked);
  }
  PDS_REQUIRE(bad == 0);  // matches the scalar PDS_REQUIRE(wait >= 0.0)
  return pick_highest_eq2(crit, h.lanes, hmax2(vbest));
}

ClassId additive_sse2(const Heads& h, const double* sdp, double now) {
  alignas(16) double crit[kMaxSimdLanes];
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d vneg = _mm_set1_pd(kNegInf);
  const __m128d vzero = _mm_setzero_pd();
  __m128d vbest = vneg;
  int bad = 0;
  for (std::uint32_t i = 0; i < h.lanes; i += 2) {
    const __m128d mask =
        _mm_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m128d wait = _mm_sub_pd(vnow, _mm_loadu_pd(h.arrival + i));
    bad |= _mm_movemask_pd(_mm_and_pd(mask, _mm_cmplt_pd(wait, vzero)));
    const __m128d p = _mm_add_pd(wait, _mm_loadu_pd(sdp + i));
    const __m128d masked = select2(mask, p, vneg);
    _mm_storeu_pd(crit + i, masked);
    vbest = _mm_max_pd(vbest, masked);
  }
  PDS_REQUIRE(bad == 0);
  return pick_highest_eq2(crit, h.lanes, hmax2(vbest));
}

ClassId pad_sse2(const Heads& h, const double* sdp, const double* cum,
                 const double* served, double now) {
  alignas(16) double crit[kMaxSimdLanes];
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d vneg = _mm_set1_pd(kNegInf);
  const __m128d vone = _mm_set1_pd(1.0);
  __m128d vbest = vneg;
  for (std::uint32_t i = 0; i < h.lanes; i += 2) {
    const __m128d mask =
        _mm_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m128d wait = _mm_sub_pd(vnow, _mm_loadu_pd(h.arrival + i));
    const __m128d sum = _mm_add_pd(_mm_loadu_pd(cum + i), wait);
    const __m128d n = _mm_add_pd(_mm_loadu_pd(served + i), vone);
    const __m128d p = _mm_mul_pd(_mm_div_pd(sum, n), _mm_loadu_pd(sdp + i));
    const __m128d masked = select2(mask, p, vneg);
    _mm_storeu_pd(crit + i, masked);
    vbest = _mm_max_pd(vbest, masked);
  }
  return pick_highest_eq2(crit, h.lanes, hmax2(vbest));
}

ClassId hpd_sse2(const Heads& h, const double* sdp, const double* cum,
                 const double* served, double now, double g) {
  alignas(16) double crit[kMaxSimdLanes];
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d vneg = _mm_set1_pd(kNegInf);
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128d vg = _mm_set1_pd(g);
  const __m128d vgc = _mm_set1_pd(1.0 - g);
  __m128d vbest = vneg;
  for (std::uint32_t i = 0; i < h.lanes; i += 2) {
    const __m128d mask =
        _mm_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m128d s = _mm_loadu_pd(sdp + i);
    const __m128d wait = _mm_sub_pd(vnow, _mm_loadu_pd(h.arrival + i));
    const __m128d wtp_part = _mm_mul_pd(wait, s);
    const __m128d sum = _mm_add_pd(_mm_loadu_pd(cum + i), wait);
    const __m128d n = _mm_add_pd(_mm_loadu_pd(served + i), vone);
    const __m128d pad_part = _mm_mul_pd(_mm_div_pd(sum, n), s);
    const __m128d p = _mm_add_pd(_mm_mul_pd(vg, wtp_part),
                                 _mm_mul_pd(vgc, pad_part));
    const __m128d masked = select2(mask, p, vneg);
    _mm_storeu_pd(crit + i, masked);
    vbest = _mm_max_pd(vbest, masked);
  }
  return pick_highest_eq2(crit, h.lanes, hmax2(vbest));
}

ClassId bpr_sse2(const Heads& h, const double* rates, double* vs,
                 double elapsed, double last_departure, bool any_departure) {
  alignas(16) double crit[kMaxSimdLanes];
  const __m128d vpos = _mm_set1_pd(kPosInf);
  const __m128d vel = _mm_set1_pd(elapsed);
  const __m128d vlast = _mm_set1_pd(last_departure);
  // all-ones when the head predates the last departure (vs accrues);
  // any_departure == false forces the "fresh head" branch on every lane.
  const __m128d vany =
      _mm_castsi128_pd(_mm_set1_epi64x(any_departure ? -1 : 0));
  __m128d vbest = vpos;
  for (std::uint32_t i = 0; i < h.lanes; i += 2) {
    const __m128d mask =
        _mm_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m128d arrival = _mm_loadu_pd(h.arrival + i);
    const __m128d accrued = _mm_add_pd(
        _mm_loadu_pd(vs + i), _mm_mul_pd(_mm_loadu_pd(rates + i), vel));
    const __m128d stale =
        _mm_and_pd(vany, _mm_cmple_pd(arrival, vlast));  // !(arrival > last)
    const __m128d vs_new =
        _mm_and_pd(mask, _mm_and_pd(stale, accrued));  // else branches are 0
    _mm_storeu_pd(vs + i, vs_new);
    const __m128d rem = _mm_sub_pd(_mm_loadu_pd(h.head_bytes + i), vs_new);
    const __m128d masked = select2(mask, rem, vpos);
    _mm_storeu_pd(crit + i, masked);
    vbest = _mm_min_pd(vbest, masked);
  }
  const double best = hmin2(vbest);
  const __m128d vbest1 = _mm_set1_pd(best);
  for (std::uint32_t i = h.lanes; i != 0; i -= 2) {
    const __m128d v = _mm_loadu_pd(crit + i - 2);
    const int m = _mm_movemask_pd(_mm_cmpeq_pd(v, vbest1));
    if (m != 0) {
      return static_cast<ClassId>(i - 2 +
                                  static_cast<std::uint32_t>(31 - __builtin_clz(
                                      static_cast<unsigned>(m))));
    }
  }
  PDS_REQUIRE(false);
}

// ---------------------------------------------------------------------------
// AVX2 kernels (4 lanes) — same structure, wider registers. The target
// attribute lets this TU compile without -mavx2.
// ---------------------------------------------------------------------------

#define PDS_AVX2 __attribute__((target("avx2")))

PDS_AVX2 inline __m256d select4(__m256d mask, __m256d value, __m256d fill) {
  return _mm256_blendv_pd(fill, value, mask);
}

PDS_AVX2 double hmax4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}

PDS_AVX2 double hmin4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
}

PDS_AVX2 ClassId pick_highest_eq4(const double* crit, std::uint32_t lanes,
                                  double best) {
  const __m256d vbest = _mm256_set1_pd(best);
  for (std::uint32_t i = lanes; i != 0; i -= 4) {
    const __m256d v = _mm256_loadu_pd(crit + i - 4);
    const int m =
        _mm256_movemask_pd(_mm256_cmp_pd(v, vbest, _CMP_EQ_OQ));
    if (m != 0) {
      return static_cast<ClassId>(i - 4 +
                                  static_cast<std::uint32_t>(31 - __builtin_clz(
                                      static_cast<unsigned>(m))));
    }
  }
  PDS_REQUIRE(false);
}

PDS_AVX2 ClassId wtp_avx2(const Heads& h, const double* sdp, double now) {
  alignas(32) double crit[kMaxSimdLanes];
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vneg = _mm256_set1_pd(kNegInf);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d vbest = vneg;
  int bad = 0;
  for (std::uint32_t i = 0; i < h.lanes; i += 4) {
    const __m256d mask =
        _mm256_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m256d wait = _mm256_sub_pd(vnow, _mm256_loadu_pd(h.arrival + i));
    bad |= _mm256_movemask_pd(
        _mm256_and_pd(mask, _mm256_cmp_pd(wait, vzero, _CMP_LT_OQ)));
    const __m256d p = _mm256_mul_pd(wait, _mm256_loadu_pd(sdp + i));
    const __m256d masked = select4(mask, p, vneg);
    _mm256_storeu_pd(crit + i, masked);
    vbest = _mm256_max_pd(vbest, masked);
  }
  PDS_REQUIRE(bad == 0);
  return pick_highest_eq4(crit, h.lanes, hmax4(vbest));
}

PDS_AVX2 ClassId additive_avx2(const Heads& h, const double* sdp,
                               double now) {
  alignas(32) double crit[kMaxSimdLanes];
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vneg = _mm256_set1_pd(kNegInf);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d vbest = vneg;
  int bad = 0;
  for (std::uint32_t i = 0; i < h.lanes; i += 4) {
    const __m256d mask =
        _mm256_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m256d wait = _mm256_sub_pd(vnow, _mm256_loadu_pd(h.arrival + i));
    bad |= _mm256_movemask_pd(
        _mm256_and_pd(mask, _mm256_cmp_pd(wait, vzero, _CMP_LT_OQ)));
    const __m256d p = _mm256_add_pd(wait, _mm256_loadu_pd(sdp + i));
    const __m256d masked = select4(mask, p, vneg);
    _mm256_storeu_pd(crit + i, masked);
    vbest = _mm256_max_pd(vbest, masked);
  }
  PDS_REQUIRE(bad == 0);
  return pick_highest_eq4(crit, h.lanes, hmax4(vbest));
}

PDS_AVX2 ClassId pad_avx2(const Heads& h, const double* sdp,
                          const double* cum, const double* served,
                          double now) {
  alignas(32) double crit[kMaxSimdLanes];
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vneg = _mm256_set1_pd(kNegInf);
  const __m256d vone = _mm256_set1_pd(1.0);
  __m256d vbest = vneg;
  for (std::uint32_t i = 0; i < h.lanes; i += 4) {
    const __m256d mask =
        _mm256_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m256d wait = _mm256_sub_pd(vnow, _mm256_loadu_pd(h.arrival + i));
    const __m256d sum = _mm256_add_pd(_mm256_loadu_pd(cum + i), wait);
    const __m256d n = _mm256_add_pd(_mm256_loadu_pd(served + i), vone);
    const __m256d p =
        _mm256_mul_pd(_mm256_div_pd(sum, n), _mm256_loadu_pd(sdp + i));
    const __m256d masked = select4(mask, p, vneg);
    _mm256_storeu_pd(crit + i, masked);
    vbest = _mm256_max_pd(vbest, masked);
  }
  return pick_highest_eq4(crit, h.lanes, hmax4(vbest));
}

PDS_AVX2 ClassId hpd_avx2(const Heads& h, const double* sdp,
                          const double* cum, const double* served, double now,
                          double g) {
  alignas(32) double crit[kMaxSimdLanes];
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vneg = _mm256_set1_pd(kNegInf);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vg = _mm256_set1_pd(g);
  const __m256d vgc = _mm256_set1_pd(1.0 - g);
  __m256d vbest = vneg;
  for (std::uint32_t i = 0; i < h.lanes; i += 4) {
    const __m256d mask =
        _mm256_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m256d s = _mm256_loadu_pd(sdp + i);
    const __m256d wait = _mm256_sub_pd(vnow, _mm256_loadu_pd(h.arrival + i));
    const __m256d wtp_part = _mm256_mul_pd(wait, s);
    const __m256d sum = _mm256_add_pd(_mm256_loadu_pd(cum + i), wait);
    const __m256d n = _mm256_add_pd(_mm256_loadu_pd(served + i), vone);
    const __m256d pad_part = _mm256_mul_pd(_mm256_div_pd(sum, n), s);
    const __m256d p = _mm256_add_pd(_mm256_mul_pd(vg, wtp_part),
                                    _mm256_mul_pd(vgc, pad_part));
    const __m256d masked = select4(mask, p, vneg);
    _mm256_storeu_pd(crit + i, masked);
    vbest = _mm256_max_pd(vbest, masked);
  }
  return pick_highest_eq4(crit, h.lanes, hmax4(vbest));
}

PDS_AVX2 ClassId bpr_avx2(const Heads& h, const double* rates, double* vs,
                          double elapsed, double last_departure,
                          bool any_departure) {
  alignas(32) double crit[kMaxSimdLanes];
  const __m256d vpos = _mm256_set1_pd(kPosInf);
  const __m256d vel = _mm256_set1_pd(elapsed);
  const __m256d vlast = _mm256_set1_pd(last_departure);
  const __m256d vany = _mm256_castsi256_pd(
      _mm256_set1_epi64x(any_departure ? -1 : 0));
  __m256d vbest = vpos;
  for (std::uint32_t i = 0; i < h.lanes; i += 4) {
    const __m256d mask =
        _mm256_loadu_pd(reinterpret_cast<const double*>(h.mask + i));
    const __m256d arrival = _mm256_loadu_pd(h.arrival + i);
    const __m256d accrued =
        _mm256_add_pd(_mm256_loadu_pd(vs + i),
                      _mm256_mul_pd(_mm256_loadu_pd(rates + i), vel));
    const __m256d stale = _mm256_and_pd(
        vany, _mm256_cmp_pd(arrival, vlast, _CMP_LE_OQ));
    const __m256d vs_new = _mm256_and_pd(mask, _mm256_and_pd(stale, accrued));
    _mm256_storeu_pd(vs + i, vs_new);
    const __m256d rem =
        _mm256_sub_pd(_mm256_loadu_pd(h.head_bytes + i), vs_new);
    const __m256d masked = select4(mask, rem, vpos);
    _mm256_storeu_pd(crit + i, masked);
    vbest = _mm256_min_pd(vbest, masked);
  }
  const double best = hmin4(vbest);
  const __m256d vbest1 = _mm256_set1_pd(best);
  for (std::uint32_t i = h.lanes; i != 0; i -= 4) {
    const __m256d v = _mm256_loadu_pd(crit + i - 4);
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(v, vbest1, _CMP_EQ_OQ));
    if (m != 0) {
      return static_cast<ClassId>(i - 4 +
                                  static_cast<std::uint32_t>(31 - __builtin_clz(
                                      static_cast<unsigned>(m))));
    }
  }
  PDS_REQUIRE(false);
}

#undef PDS_AVX2

#endif  // PDS_SCAN_X86

// Resolves a backend request to a concrete dispatch level for `lanes` lanes.
// 0 = scalar; on x86, 1 = SSE2 and 2 = AVX2.
int resolve(Backend backend, std::uint32_t lanes) {
#if PDS_SCAN_X86
  if (backend == Backend::kScalar || lanes > kMaxSimdLanes) return 0;
  if (backend == Backend::kAuto && lanes <= kAutoScalarMaxLanes) return 0;
  return best_level();
#else
  (void)backend;
  (void)lanes;
  return 0;
#endif
}

}  // namespace

bool simd_available() noexcept {
#if PDS_SCAN_X86
  return true;
#else
  return false;
#endif
}

const char* backend_name(Backend backend) noexcept {
#if PDS_SCAN_X86
  if (backend == Backend::kScalar) return "scalar";
  return best_level() == kLevelAvx2 ? "avx2" : "sse2";
#else
  (void)backend;
  return "scalar";
#endif
}

ClassId wtp_select(const Heads& heads, const double* sdp, double now,
                   Backend backend) {
#if PDS_SCAN_X86
  switch (resolve(backend, heads.lanes)) {
    case kLevelAvx2:
      return wtp_avx2(heads, sdp, now);
    case kLevelSse2:
      return wtp_sse2(heads, sdp, now);
    default:
      break;
  }
#endif
  (void)resolve(backend, heads.lanes);
  return wtp_scalar(heads, sdp, now);
}

ClassId additive_select(const Heads& heads, const double* sdp, double now,
                        Backend backend) {
#if PDS_SCAN_X86
  switch (resolve(backend, heads.lanes)) {
    case kLevelAvx2:
      return additive_avx2(heads, sdp, now);
    case kLevelSse2:
      return additive_sse2(heads, sdp, now);
    default:
      break;
  }
#endif
  return additive_scalar(heads, sdp, now);
}

ClassId pad_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now, Backend backend) {
#if PDS_SCAN_X86
  switch (resolve(backend, heads.lanes)) {
    case kLevelAvx2:
      return pad_avx2(heads, sdp, cum, served, now);
    case kLevelSse2:
      return pad_sse2(heads, sdp, cum, served, now);
    default:
      break;
  }
#endif
  return pad_scalar(heads, sdp, cum, served, now);
}

ClassId hpd_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now, double g,
                   Backend backend) {
#if PDS_SCAN_X86
  switch (resolve(backend, heads.lanes)) {
    case kLevelAvx2:
      return hpd_avx2(heads, sdp, cum, served, now, g);
    case kLevelSse2:
      return hpd_sse2(heads, sdp, cum, served, now, g);
    default:
      break;
  }
#endif
  return hpd_scalar(heads, sdp, cum, served, now, g);
}

ClassId bpr_select(const Heads& heads, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure,
                   Backend backend) {
#if PDS_SCAN_X86
  switch (resolve(backend, heads.lanes)) {
    case kLevelAvx2:
      return bpr_avx2(heads, rates, vs, elapsed, last_departure,
                      any_departure);
    case kLevelSse2:
      return bpr_sse2(heads, rates, vs, elapsed, last_departure,
                      any_departure);
    default:
      break;
  }
#endif
  return bpr_scalar(heads, rates, vs, elapsed, last_departure, any_departure);
}

}  // namespace pds::scan
