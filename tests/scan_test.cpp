// Differential tests for the vectorized priority-scan kernels: the scalar
// and SIMD backends must produce bit-identical decisions — same winning
// class under the paper's tie-break (highest class index wins), and for BPR
// the same post-update virtual-service state — for every input, including
// all-empty backlogs, a single backlogged class, and exact priority ties.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rng/rng.hpp"
#include "sched/factory.hpp"
#include "sched/scan.hpp"
#include "sched/scheduler.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

using scan::Backend;

// Fuzzed SoA head state with at least one backlogged class. Arrivals never
// exceed `now` (the kernels require non-negative waits) and sizes are drawn
// from a tiny set so equal head bytes — and therefore BPR ties — are common.
struct FuzzState {
  std::vector<double> arrival;
  std::vector<double> head_bytes;
  std::vector<std::uint64_t> mask;
  std::vector<double> sdp;
  std::vector<double> cum;
  std::vector<double> served;
  std::uint32_t n = 0;

  scan::Heads heads() const {
    return scan::Heads{arrival.data(), head_bytes.data(), mask.data(), n,
                       scan::padded_lanes(n)};
  }
};

FuzzState fuzz_state(Rng& rng, double now, std::uint32_t n) {
  FuzzState st;
  st.n = n;
  const std::uint32_t lanes = scan::padded_lanes(n);
  st.arrival.assign(lanes, 0.0);
  st.head_bytes.assign(lanes, 0.0);
  st.mask.assign(lanes, 0);
  st.sdp.assign(lanes, 0.0);
  st.cum.assign(lanes, 0.0);
  st.served.assign(lanes, 0.0);
  bool any = false;
  for (std::uint32_t c = 0; c < n; ++c) {
    // Quantized SDPs and a tiny size/arrival alphabet provoke exact ties.
    st.sdp[c] = 1.0 + static_cast<double>(c) *
                          (rng.uniform01() < 0.5 ? 0.0 : 1.0);
    if (rng.uniform01() < 0.7) {
      st.mask[c] = ~std::uint64_t{0};
      st.arrival[c] = now * static_cast<double>(rng.uniform_index(5)) / 8.0;
      st.head_bytes[c] =
          static_cast<double>(64 * (1 + rng.uniform_index(3)));
      any = true;
    }
    st.cum[c] = static_cast<double>(rng.uniform_index(4)) * 100.0;
    st.served[c] = static_cast<double>(rng.uniform_index(4));
  }
  if (!any) {
    const auto c = static_cast<std::uint32_t>(rng.uniform_index(n));
    st.mask[c] = ~std::uint64_t{0};
    st.arrival[c] = now / 2.0;
    st.head_bytes[c] = 128.0;
  }
  return st;
}

TEST(ScanKernels, BackendNamesAreReported) {
  EXPECT_STREQ(scan::backend_name(Backend::kScalar), "scalar");
  const char* simd = scan::backend_name(Backend::kSimd);
  if (scan::simd_available()) {
    EXPECT_TRUE(std::string(simd) == "sse2" || std::string(simd) == "avx2");
  } else {
    EXPECT_STREQ(simd, "scalar");
  }
}

TEST(ScanKernels, FuzzedWtpAdditivePadHpdAgree) {
  Rng rng(0xc0ffee);
  for (int iter = 0; iter < 5000; ++iter) {
    const double now = 100.0 + static_cast<double>(rng.uniform_index(900));
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(9));
    const FuzzState st = fuzz_state(rng, now, n);
    const auto h = st.heads();
    const double g = 0.125 * static_cast<double>(1 + rng.uniform_index(8));

    EXPECT_EQ(scan::wtp_select(h, st.sdp.data(), now, Backend::kScalar),
              scan::wtp_select(h, st.sdp.data(), now, Backend::kSimd))
        << "wtp iter " << iter;
    EXPECT_EQ(scan::additive_select(h, st.sdp.data(), now, Backend::kScalar),
              scan::additive_select(h, st.sdp.data(), now, Backend::kSimd))
        << "additive iter " << iter;
    EXPECT_EQ(scan::pad_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), now, Backend::kScalar),
              scan::pad_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), now, Backend::kSimd))
        << "pad iter " << iter;
    EXPECT_EQ(scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), now, g, Backend::kScalar),
              scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), now, g, Backend::kSimd))
        << "hpd iter " << iter << " g=" << g;
  }
}

TEST(ScanKernels, FuzzedBprAgreesIncludingVirtualServiceState) {
  Rng rng(0xbeef);
  for (int iter = 0; iter < 5000; ++iter) {
    const double now = 100.0 + static_cast<double>(rng.uniform_index(900));
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(9));
    const FuzzState st = fuzz_state(rng, now, n);
    const auto h = st.heads();

    std::vector<double> rates(h.lanes, 0.0);
    std::vector<double> vs_scalar(h.lanes, 0.0);
    for (std::uint32_t c = 0; c < n; ++c) {
      rates[c] = 0.25 * static_cast<double>(1 + rng.uniform_index(8));
      vs_scalar[c] = static_cast<double>(rng.uniform_index(4)) * 32.0;
    }
    std::vector<double> vs_simd = vs_scalar;
    const double elapsed = static_cast<double>(rng.uniform_index(50));
    const double last_departure = now - elapsed;
    const bool any_departure = rng.uniform01() < 0.8;

    const ClassId a =
        scan::bpr_select(h, rates.data(), vs_scalar.data(), elapsed,
                         last_departure, any_departure, Backend::kScalar);
    const ClassId b =
        scan::bpr_select(h, rates.data(), vs_simd.data(), elapsed,
                         last_departure, any_departure, Backend::kSimd);
    EXPECT_EQ(a, b) << "bpr iter " << iter;
    // The in-place virtual-service update must also be bit-identical.
    EXPECT_EQ(0, std::memcmp(vs_scalar.data(), vs_simd.data(),
                             vs_scalar.size() * sizeof(double)))
        << "bpr vs state iter " << iter;
  }
}

TEST(ScanKernels, ExactTieGoesToHighestClassOnEveryBackend) {
  // All backlogged classes share arrival, size and SDP: every priority is
  // numerically identical, so the paper's tie-break (highest class) decides.
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    const std::uint32_t lanes = scan::padded_lanes(n);
    FuzzState st;
    st.n = n;
    st.arrival.assign(lanes, 0.0);
    st.head_bytes.assign(lanes, 0.0);
    st.mask.assign(lanes, 0);
    st.sdp.assign(lanes, 0.0);
    st.cum.assign(lanes, 0.0);
    st.served.assign(lanes, 0.0);
    for (std::uint32_t c = 0; c < n; ++c) {
      st.mask[c] = ~std::uint64_t{0};
      st.arrival[c] = 10.0;
      st.head_bytes[c] = 100.0;
      st.sdp[c] = 1.0;
    }
    const auto h = st.heads();
    std::vector<double> rates(lanes, 1.0);
    for (Backend be : {Backend::kScalar, Backend::kSimd}) {
      EXPECT_EQ(scan::wtp_select(h, st.sdp.data(), 20.0, be), n - 1);
      EXPECT_EQ(scan::additive_select(h, st.sdp.data(), 20.0, be), n - 1);
      EXPECT_EQ(scan::pad_select(h, st.sdp.data(), st.cum.data(),
                                 st.served.data(), 20.0, be),
                n - 1);
      EXPECT_EQ(scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                                 st.served.data(), 20.0, 0.875, be),
                n - 1);
      std::vector<double> vs(lanes, 0.0);
      EXPECT_EQ(scan::bpr_select(h, rates.data(), vs.data(), 0.0, 20.0, true,
                                 be),
                n - 1);
    }
  }
}

TEST(ScanKernels, SingleBackloggedClassWinsRegardlessOfIndex) {
  for (std::uint32_t n : {1u, 4u, 7u}) {
    for (std::uint32_t only = 0; only < n; ++only) {
      const std::uint32_t lanes = scan::padded_lanes(n);
      FuzzState st;
      st.n = n;
      st.arrival.assign(lanes, 0.0);
      st.head_bytes.assign(lanes, 0.0);
      st.mask.assign(lanes, 0);
      st.sdp.assign(lanes, 0.0);
      st.cum.assign(lanes, 0.0);
      st.served.assign(lanes, 0.0);
      for (std::uint32_t c = 0; c < n; ++c) st.sdp[c] = 1.0 + c;
      st.mask[only] = ~std::uint64_t{0};
      st.arrival[only] = 5.0;
      st.head_bytes[only] = 200.0;
      const auto h = st.heads();
      std::vector<double> rates(lanes, 1.0);
      std::vector<double> vs(lanes, 0.0);
      for (Backend be : {Backend::kScalar, Backend::kSimd}) {
        EXPECT_EQ(scan::wtp_select(h, st.sdp.data(), 9.0, be), only);
        EXPECT_EQ(scan::additive_select(h, st.sdp.data(), 9.0, be), only);
        EXPECT_EQ(scan::pad_select(h, st.sdp.data(), st.cum.data(),
                                   st.served.data(), 9.0, be),
                  only);
        EXPECT_EQ(scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                                   st.served.data(), 9.0, 0.5, be),
                  only);
        std::fill(vs.begin(), vs.end(), 0.0);
        EXPECT_EQ(scan::bpr_select(h, rates.data(), vs.data(), 1.0, 8.0,
                                   true, be),
                  only);
      }
    }
  }
}

// ------------------------------------------------------- scheduler level

// Drives two instances of the same scheduler kind through an identical
// fuzzed enqueue/dequeue interleaving, one forced to the scalar backend and
// one to SIMD, and requires the identical dequeue order.
void differential_run(SchedulerKind kind, std::uint64_t seed) {
  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0, 16.0};
  config.link_capacity = 10.0;
  auto a = make_scheduler(kind, config);
  auto b = make_scheduler(kind, config);
  auto* ca = dynamic_cast<ClassBasedScheduler*>(a.get());
  auto* cb = dynamic_cast<ClassBasedScheduler*>(b.get());
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  ca->set_scan_backend(Backend::kScalar);
  cb->set_scan_backend(Backend::kSimd);

  // All-empty: both report empty and neither produces a packet.
  EXPECT_TRUE(a->empty());
  EXPECT_FALSE(a->dequeue(0.0).has_value());
  EXPECT_FALSE(b->dequeue(0.0).has_value());

  Rng rng(seed);
  double now = 0.0;
  std::uint64_t id = 0;
  for (int step = 0; step < 4000; ++step) {
    now += static_cast<double>(rng.uniform_index(20));
    if (rng.uniform01() < 0.55) {
      const auto cls = static_cast<ClassId>(rng.uniform_index(5));
      const auto bytes =
          static_cast<std::uint32_t>(64 * (1 + rng.uniform_index(3)));
      a->enqueue(testutil::packet(id, cls, bytes, now), now);
      b->enqueue(testutil::packet(id, cls, bytes, now), now);
      ++id;
    } else {
      auto pa = a->dequeue(now);
      auto pb = b->dequeue(now);
      ASSERT_EQ(pa.has_value(), pb.has_value()) << "step " << step;
      if (pa.has_value()) {
        EXPECT_EQ(pa->id, pb->id) << "step " << step;
        EXPECT_EQ(pa->cls, pb->cls) << "step " << step;
      }
    }
  }
  // Drain what is left; order must stay identical.
  while (!a->empty()) {
    now += 1.0;
    auto pa = a->dequeue(now);
    auto pb = b->dequeue(now);
    ASSERT_TRUE(pa.has_value());
    ASSERT_TRUE(pb.has_value());
    EXPECT_EQ(pa->id, pb->id);
  }
  EXPECT_TRUE(b->empty());
}

TEST(ScanDifferential, WtpDequeueOrderMatches) {
  differential_run(SchedulerKind::kWtp, 11);
}
TEST(ScanDifferential, AdditiveDequeueOrderMatches) {
  differential_run(SchedulerKind::kAdditiveWtp, 22);
}
TEST(ScanDifferential, BprDequeueOrderMatches) {
  differential_run(SchedulerKind::kBpr, 33);
}
TEST(ScanDifferential, PadDequeueOrderMatches) {
  differential_run(SchedulerKind::kPad, 44);
}
TEST(ScanDifferential, HpdDequeueOrderMatches) {
  differential_run(SchedulerKind::kHpd, 55);
}

TEST(ScanDifferential, BurstDequeueOrderMatchesAcrossBackends) {
  for (SchedulerKind kind :
       {SchedulerKind::kWtp, SchedulerKind::kAdditiveWtp, SchedulerKind::kBpr,
        SchedulerKind::kPad, SchedulerKind::kHpd}) {
    SchedulerConfig config;
    config.sdp = {1.0, 2.0, 4.0};
    config.link_capacity = 10.0;
    auto a = make_scheduler(kind, config);
    auto b = make_scheduler(kind, config);
    dynamic_cast<ClassBasedScheduler*>(a.get())->set_scan_backend(
        Backend::kScalar);
    dynamic_cast<ClassBasedScheduler*>(b.get())->set_scan_backend(
        Backend::kSimd);
    Rng rng(77);
    double now = 0.0;
    std::uint64_t id = 0;
    Packet out_a[8], out_b[8];
    for (int step = 0; step < 600; ++step) {
      now += 1.0;
      if (rng.uniform01() < 0.6) {
        const auto cls = static_cast<ClassId>(rng.uniform_index(3));
        a->enqueue(testutil::packet(id, cls, 100, now), now);
        b->enqueue(testutil::packet(id, cls, 100, now), now);
        ++id;
      } else {
        const auto k = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
        const std::uint32_t na = a->dequeue_burst(now, out_a, k);
        const std::uint32_t nb = b->dequeue_burst(now, out_b, k);
        ASSERT_EQ(na, nb) << "step " << step;
        for (std::uint32_t i = 0; i < na; ++i) {
          EXPECT_EQ(out_a[i].id, out_b[i].id) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pds
