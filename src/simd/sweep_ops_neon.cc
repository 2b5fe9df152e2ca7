// AArch64 NEON backend: 2 doubles per operation. Same bitwise-parity
// discipline as the AVX2 backend (see sweep_ops_avx2.cc): scalar operation
// order replayed in lanes, no FMA contraction (-ffp-contract=off; NEON
// fused ops are never emitted from these explicit intrinsics).
//
// Only bound_intervals and bucket_indices are vector code here. The other
// passes run the scalar reference (sweep_ops_inline.h): bucket_sweep until
// a NEON form can be measured on AArch64 hardware, and the direct entry's
// envelope_filter, histogram_scatter and row_sweep on every backend. The
// equivalence tests exercise this table whenever they run on AArch64.
#include "simd/sweep_ops.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "simd/sweep_ops_inline.h"

namespace slam {

namespace {

void BoundIntervals(const double* ex, const double* ey, size_t n, double k,
                    double bandwidth, double* lb, double* ub) {
  const double b2 = bandwidth * bandwidth;
  const float64x2_t kv = vdupq_n_f64(k);
  const float64x2_t b2v = vdupq_n_f64(b2);
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dy = vsubq_f64(kv, vld1q_f64(ey + i));
    const float64x2_t rem =
        vmaxq_f64(vsubq_f64(b2v, vmulq_f64(dy, dy)), zero);
    const float64x2_t hw = vsqrtq_f64(rem);
    const float64x2_t x = vld1q_f64(ex + i);
    vst1q_f64(lb + i, vsubq_f64(x, hw));
    vst1q_f64(ub + i, vaddq_f64(x, hw));
  }
  simd_internal::BoundIntervalsScalarRange(ex, ey, i, n, k, bandwidth, lb,
                                           ub);
}

void BucketIndices(const double* lb, const double* ub, size_t n,
                   const GridAxis& xs, int32_t* lower_bucket,
                   int32_t* upper_bucket) {
  const float64x2_t origin = vdupq_n_f64(xs.origin);
  const float64x2_t gap = vdupq_n_f64(xs.gap);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t count = vdupq_n_f64(static_cast<double>(xs.count));
  const float64x2_t one = vdupq_n_f64(1.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t lo = vrndpq_f64(
        vdivq_f64(vsubq_f64(vld1q_f64(lb + i), origin), gap));
    lo = vminq_f64(vmaxq_f64(lo, zero), count);
    float64x2_t up = vaddq_f64(
        vrndmq_f64(vdivq_f64(vsubq_f64(vld1q_f64(ub + i), origin), gap)),
        one);
    up = vminq_f64(vmaxq_f64(up, zero), count);
    vst1_s32(lower_bucket + i, vmovn_s64(vcvtq_s64_f64(lo)));
    vst1_s32(upper_bucket + i, vmovn_s64(vcvtq_s64_f64(up)));
  }
  simd_internal::BucketIndicesScalarRange(lb, ub, i, n, xs, lower_bucket,
                                          upper_bucket);
}

constexpr SimdOps kNeonOps = {
    SimdLevel::kNeon,
    &simd_internal::EnvelopeFilterScalar,
    &BoundIntervals,
    &BucketIndices,
    &simd_internal::HistogramScatterScalar,
    &simd_internal::RowSweepScalar,
    &simd_internal::BucketSweepScalar,
};

}  // namespace

const SimdOps* GetNeonOps() { return &kNeonOps; }

}  // namespace slam

#else  // !AArch64 NEON

namespace slam {

const SimdOps* GetNeonOps() { return nullptr; }

}  // namespace slam

#endif
