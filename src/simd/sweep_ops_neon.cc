// AArch64 NEON backend: 2 doubles per operation. Same structure and the
// same bitwise-parity discipline as the AVX2 backend (see
// sweep_ops_avx2.cc): scalar operation order replayed in lanes, Knuth
// two-sum for compensation, no FMA contraction (-ffp-contract=off; NEON
// fused ops are never emitted from these explicit intrinsics).
//
// The running L/U state lives in the SoaAccumulator arrays and is updated
// with 2-wide channel vectors — simpler than the AVX2 register-resident
// scheme, chosen because this backend favors being obviously correct on
// hardware the CI fleet may not cover; the equivalence tests exercise it
// whenever they run on AArch64.
#include "simd/sweep_ops.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "simd/sweep_ops_inline.h"

namespace slam {

namespace {

inline void TwoSumAccumulate(float64x2_t& sum, float64x2_t& comp,
                             float64x2_t v) {
  const float64x2_t t = vaddq_f64(sum, v);
  const float64x2_t bb = vsubq_f64(t, sum);
  const float64x2_t err = vaddq_f64(vsubq_f64(sum, vsubq_f64(t, bb)),
                                    vsubq_f64(v, bb));
  comp = vaddq_f64(comp, err);
  sum = t;
}

/// {r0[ch], r1[ch]} — channel gather across two pixel snapshots.
inline float64x2_t Gather2(const double* r0, const double* r1, int ch) {
  return vsetq_lane_f64(r1[ch], vdupq_n_f64(r0[ch]), 1);
}

size_t EnvelopeFilter(std::span<const Point> points, double k,
                      double bandwidth, double* ex, double* ey) {
  const size_t n = points.size();
  const float64x2_t kv = vdupq_n_f64(k);
  const float64x2_t bv = vdupq_n_f64(bandwidth);
  size_t m = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2x2_t p = vld2q_f64(&points[i].x);  // deinterleaved x, y
    const float64x2_t ady = vabsq_f64(vsubq_f64(kv, p.val[1]));
    const uint64x2_t mask = vcleq_f64(ady, bv);
    // Branch-free cursor advance: always store the lane at the cursor,
    // bump only when it survived (never writes past n; the caller sizes
    // ex/ey to points.size()).
    ex[m] = vgetq_lane_f64(p.val[0], 0);
    ey[m] = vgetq_lane_f64(p.val[1], 0);
    m += vgetq_lane_u64(mask, 0) & 1;
    ex[m] = vgetq_lane_f64(p.val[0], 1);
    ey[m] = vgetq_lane_f64(p.val[1], 1);
    m += vgetq_lane_u64(mask, 1) & 1;
  }
  for (; i < n; ++i) {
    if (std::abs(k - points[i].y) <= bandwidth) {
      ex[m] = points[i].x;
      ey[m] = points[i].y;
      ++m;
    }
  }
  return m;
}

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

/// Inclusive prefix sum of 4 int32 lanes via two zero-filled vext shifted
/// adds. Integer adds are associative, so regrouping is exact.
inline int32x4_t PrefixSum4(int32x4_t v) {
  const int32x4_t zero = vdupq_n_s32(0);
  v = vaddq_s32(v, vextq_s32(zero, v, 3));
  v = vaddq_s32(v, vextq_s32(zero, v, 2));
  return v;
}

void HistogramScatter(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
  simd_internal::HistogramCountScalar(a);
  // The X-length pass, 4 bins per op with a broadcast running carry. The
  // count and scatter passes stay scalar (see the op comment in
  // sweep_ops.h).
  for (int32_t* offsets : {a.lower_offsets, a.upper_offsets}) {
    int32x4_t carry = vdupq_n_s32(0);
    size_t b = 0;
    for (; b + 4 <= bins; b += 4) {
      int32x4_t v = vaddq_s32(PrefixSum4(vld1q_s32(offsets + b)), carry);
      vst1q_s32(offsets + b, v);
      carry = vdupq_laneq_s32(v, 3);
    }
    int32_t run = (b > 0) ? offsets[b - 1] : 0;
    for (; b < bins; ++b) {
      run += offsets[b];
      offsets[b] = run;
    }
  }
  simd_internal::HistogramScatterEndpointsScalar(a);
}

void RowSweepUniform(const RowSweepArgs& a) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const double wob = a.weight / prof.bandwidth;
  const float64x2_t wobv = vdupq_n_f64(wob);
  int ix = 0;
  for (; ix + 2 <= a.width; ix += 2) {
    const int32x2_t lo = vld1_s32(a.lower.offsets + ix + 1);
    const int32x2_t up = vld1_s32(a.upper.offsets + ix + 1);
    const float64x2_t cnt = vcvtq_f64_s64(vmovl_s32(vsub_s32(lo, up)));
    vst1q_f64(a.out + ix, vmulq_f64(wobv, cnt));
  }
  for (; ix < a.width; ++ix) {
    a.out[ix] = wob * static_cast<double>(a.lower.offsets[ix + 1] -
                                          a.upper.offsets[ix + 1]);
  }
}

/// Pass 1 shared by the Epanechnikov and quartic paths: accumulate with
/// 2-wide channel vectors over the SoA lane arrays, snapshotting D = L − U
/// per pixel into `lanes` (stride `padded`).
template <bool kCompensated>
void SnapshotPass(const RowSweepArgs& a, int padded, double* lanes) {
  SoaAccumulator lower;
  SoaAccumulator upper;
  const auto accumulate = [padded](SoaAccumulator& acc,
                                   const EndpointRuns& runs, int32_t begin,
                                   int32_t end) {
    for (int32_t i = begin; i < end; ++i) {
      double v[kSweepChannelsPadded];
      SweepChannelValues(runs.px[i], runs.py[i], v);
      for (int ch = 0; ch < padded; ch += 2) {
        float64x2_t sum = vld1q_f64(acc.sums + ch);
        const float64x2_t vv = vld1q_f64(v + ch);
        if constexpr (kCompensated) {
          float64x2_t comp = vld1q_f64(acc.comps + ch);
          TwoSumAccumulate(sum, comp, vv);
          vst1q_f64(acc.comps + ch, comp);
        } else {
          sum = vaddq_f64(sum, vv);
        }
        vst1q_f64(acc.sums + ch, sum);
      }
    }
  };
  for (int ix = 0; ix < a.width; ++ix) {
    accumulate(lower, a.lower, a.lower.offsets[ix], a.lower.offsets[ix + 1]);
    accumulate(upper, a.upper, a.upper.offsets[ix], a.upper.offsets[ix + 1]);
    double* row = lanes + static_cast<size_t>(ix) * padded;
    for (int ch = 0; ch < padded; ch += 2) {
      float64x2_t d = vsubq_f64(vld1q_f64(lower.sums + ch),
                                vld1q_f64(upper.sums + ch));
      if constexpr (kCompensated) {
        d = vaddq_f64(d, vsubq_f64(vld1q_f64(lower.comps + ch),
                                   vld1q_f64(upper.comps + ch)));
      }
      vst1q_f64(row + ch, d);
    }
  }
}

template <bool kCompensated>
void RowSweepEpan(const RowSweepArgs& a, RowSweepScratch* scratch) {
  scratch->lanes.resize(static_cast<size_t>(a.width) * 4);
  double* lanes = scratch->lanes.data();
  SnapshotPass<kCompensated>(a, 4, lanes);

  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const float64x2_t qyv = vdupq_n_f64(a.qy);
  const float64x2_t wv = vdupq_n_f64(a.weight);
  const float64x2_t wob2 = vdupq_n_f64(a.weight / prof.b2);
  const float64x2_t two = vdupq_n_f64(2.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  int ix = 0;
  for (; ix + 2 <= a.width; ix += 2) {
    const double* r0 = lanes + static_cast<size_t>(ix) * 4;
    const double* r1 = r0 + 4;
    const float64x2_t cnt = Gather2(r0, r1, kChCount);
    const float64x2_t ax = Gather2(r0, r1, kChSumX);
    const float64x2_t ay = Gather2(r0, r1, kChSumY);
    const float64x2_t sq = Gather2(r0, r1, kChSumSq);
    const float64x2_t qx = vld1q_f64(a.qx + ix);
    const float64x2_t u =
        vaddq_f64(vmulq_f64(qx, qx), vmulq_f64(qyv, qyv));
    const float64x2_t dot =
        vaddq_f64(vmulq_f64(qx, ax), vmulq_f64(qyv, ay));
    const float64x2_t inner = vaddq_f64(
        vsubq_f64(vmulq_f64(cnt, u), vmulq_f64(two, dot)), sq);
    const float64x2_t f =
        vsubq_f64(vmulq_f64(wv, cnt), vmulq_f64(wob2, inner));
    vst1q_f64(a.out + ix, vmaxq_f64(f, zero));
  }
  for (; ix < a.width; ++ix) {
    double d[kSweepChannelsPadded] = {};
    const double* r = lanes + static_cast<size_t>(ix) * 4;
    for (int ch = 0; ch < 4; ++ch) d[ch] = r[ch];
    a.out[ix] =
        DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                              AggregatesFromLanes(d), a.bandwidth, a.weight);
  }
}

template <bool kCompensated>
void RowSweepQuartic(const RowSweepArgs& a, RowSweepScratch* scratch) {
  scratch->lanes.resize(static_cast<size_t>(a.width) * 12);
  double* lanes = scratch->lanes.data();
  SnapshotPass<kCompensated>(a, 12, lanes);

  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const float64x2_t qyv = vdupq_n_f64(a.qy);
  const float64x2_t wv = vdupq_n_f64(a.weight);
  const float64x2_t c1v = vdupq_n_f64(2.0 / prof.b2);
  const float64x2_t b4v = vdupq_n_f64(prof.b2 * prof.b2);
  const float64x2_t two = vdupq_n_f64(2.0);
  const float64x2_t four = vdupq_n_f64(4.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  int ix = 0;
  for (; ix + 2 <= a.width; ix += 2) {
    const double* r0 = lanes + static_cast<size_t>(ix) * 12;
    const double* r1 = r0 + 12;
    const float64x2_t cnt = Gather2(r0, r1, kChCount);
    const float64x2_t ax = Gather2(r0, r1, kChSumX);
    const float64x2_t ay = Gather2(r0, r1, kChSumY);
    const float64x2_t sq = Gather2(r0, r1, kChSumSq);
    const float64x2_t cx = Gather2(r0, r1, kChSumSqPX);
    const float64x2_t cy = Gather2(r0, r1, kChSumSqPY);
    const float64x2_t qd = Gather2(r0, r1, kChSumQuad);
    const float64x2_t mxx = Gather2(r0, r1, kChMxx);
    const float64x2_t mxy = Gather2(r0, r1, kChMxy);
    const float64x2_t myy = Gather2(r0, r1, kChMyy);
    const float64x2_t qx = vld1q_f64(a.qx + ix);
    const float64x2_t u =
        vaddq_f64(vmulq_f64(qx, qx), vmulq_f64(qyv, qyv));
    const float64x2_t dot =
        vaddq_f64(vmulq_f64(qx, ax), vmulq_f64(qyv, ay));
    const float64x2_t sum_d2 = vaddq_f64(
        vsubq_f64(vmulq_f64(cnt, u), vmulq_f64(two, dot)), sq);
    const float64x2_t mt_x =
        vaddq_f64(vmulq_f64(mxx, qx), vmulq_f64(mxy, qyv));
    const float64x2_t mt_y =
        vaddq_f64(vmulq_f64(mxy, qx), vmulq_f64(myy, qyv));
    const float64x2_t qmq =
        vaddq_f64(vmulq_f64(qx, mt_x), vmulq_f64(qyv, mt_y));
    const float64x2_t dot_c =
        vaddq_f64(vmulq_f64(qx, cx), vmulq_f64(qyv, cy));
    float64x2_t sum_d4 = vmulq_f64(vmulq_f64(cnt, u), u);
    sum_d4 = vaddq_f64(sum_d4, vmulq_f64(four, qmq));
    sum_d4 = vaddq_f64(sum_d4, qd);
    sum_d4 = vsubq_f64(sum_d4, vmulq_f64(vmulq_f64(four, u), dot));
    sum_d4 = vaddq_f64(sum_d4, vmulq_f64(vmulq_f64(two, u), sq));
    sum_d4 = vsubq_f64(sum_d4, vmulq_f64(four, dot_c));
    const float64x2_t inner = vaddq_f64(
        vsubq_f64(cnt, vmulq_f64(c1v, sum_d2)), vdivq_f64(sum_d4, b4v));
    vst1q_f64(a.out + ix, vmaxq_f64(vmulq_f64(wv, inner), zero));
  }
  for (; ix < a.width; ++ix) {
    double d[kSweepChannelsPadded] = {};
    const double* r = lanes + static_cast<size_t>(ix) * 12;
    for (int ch = 0; ch < kSweepChannelCount; ++ch) d[ch] = r[ch];
    a.out[ix] =
        DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                              AggregatesFromLanes(d), a.bandwidth, a.weight);
  }
}

void RowSweep(const RowSweepArgs& a, RowSweepScratch* scratch) {
  switch (SweepChannels(a.kernel)) {
    case 1:
      RowSweepUniform(a);
      return;
    case 4:
      if (a.compensated) {
        RowSweepEpan<true>(a, scratch);
      } else {
        RowSweepEpan<false>(a, scratch);
      }
      return;
    case kSweepChannelCount:
      if (a.compensated) {
        RowSweepQuartic<true>(a, scratch);
      } else {
        RowSweepQuartic<false>(a, scratch);
      }
      return;
    default:
      simd_internal::RowSweepScalar(a, scratch);  // unreachable (Gaussian)
      return;
  }
}

// bucket_sweep runs the scalar reference until a NEON form can be measured
// on AArch64 hardware.
constexpr SimdOps kNeonOps = {
    SimdLevel::kNeon,
    &EnvelopeFilter,
    &BoundIntervals,
    &BucketIndices,
    &HistogramScatter,
    &RowSweep,
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
