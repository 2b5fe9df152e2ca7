// AVX2 backend: 4 doubles per operation. Compiled with -mavx2 (and
// -ffp-contract=off — see below) on x86 only; on other targets, or when the
// toolchain lacks AVX2 support, this TU degrades to a nullptr getter and
// dispatch.cc never selects the level.
//
// Bitwise-parity discipline (vs the scalar reference in
// sweep_ops_inline.h):
//  * every vector expression replays the scalar operation sequence lane
//    for lane — same association, same hoisted divisors (weight/b²
//    evaluates identically per pixel whether hoisted or not, since the
//    operands are loop-invariant);
//  * no FMA: -mfma is never passed and -ffp-contract=off stops the
//    compiler from contracting mul+add pairs, so each rounding matches the
//    scalar code (which the default build cannot contract either — no FMA
//    target);
//  * compensation uses Knuth's branchless two-sum, which computes the same
//    exact rounding error as the branched Neumaier step in kernel.h;
//  * clamps are written max(x, 0) (second operand returned on equality) so
//    ±0 results keep the scalar sign.
//
// Layout: bound_intervals and bucket_indices run 4 points per operation.
// bucket_sweep builds each point's channel vector in registers — one
// __m256d per 4 channels (core/sweep_state.h channel order) — adds it into
// its buckets, and leaves each pixel's channel differences in its own
// bucket, where one evaluation reads 4 pixels through the bucket stride,
// transposes 4×4, and evaluates the closed-form polynomial across pixels.
// The uniform kernel needs no per-endpoint arithmetic at all: its count is
// a running sum of exact bucket counts. The direct entry's envelope_filter,
// histogram_scatter and row_sweep run the scalar reference
// (sweep_ops_inline.h) on this backend too.
#include "simd/sweep_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "simd/sweep_ops_inline.h"

namespace slam {

namespace {

/// Knuth two-sum: folds v into (sum, comp) exactly like NeumaierAdd.
inline void TwoSumAccumulate(__m256d& sum, __m256d& comp, __m256d v) {
  const __m256d t = _mm256_add_pd(sum, v);
  const __m256d bb = _mm256_sub_pd(t, sum);
  const __m256d err = _mm256_add_pd(
      _mm256_sub_pd(sum, _mm256_sub_pd(t, bb)), _mm256_sub_pd(v, bb));
  comp = _mm256_add_pd(comp, err);
  sum = t;
}

inline void Transpose4x4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                         __m256d& c0, __m256d& c1, __m256d& c2,
                         __m256d& c3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// ---------------------------------------------------------------------------
// bound_intervals
// ---------------------------------------------------------------------------

void BoundIntervals(const double* ex, const double* ey, size_t n, double k,
                    double bandwidth, double* lb, double* ub) {
  const double b2 = bandwidth * bandwidth;
  const __m256d kv = _mm256_set1_pd(k);
  const __m256d b2v = _mm256_set1_pd(b2);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dy = _mm256_sub_pd(kv, _mm256_loadu_pd(ey + i));
    // max(rem, 0): second operand wins ties, matching std::max(rem, 0.0)'s
    // sign only for rem > -0 — but sqrt(±0) == ±0 and ex ± 0 == ex either
    // way, so lb/ub match the scalar values exactly.
    const __m256d rem =
        _mm256_max_pd(_mm256_sub_pd(b2v, _mm256_mul_pd(dy, dy)), zero);
    const __m256d hw = _mm256_sqrt_pd(rem);
    const __m256d x = _mm256_loadu_pd(ex + i);
    _mm256_storeu_pd(lb + i, _mm256_sub_pd(x, hw));
    _mm256_storeu_pd(ub + i, _mm256_add_pd(x, hw));
  }
  simd_internal::BoundIntervalsScalarRange(ex, ey, i, n, k, bandwidth, lb,
                                           ub);
}

// ---------------------------------------------------------------------------
// bucket_indices
// ---------------------------------------------------------------------------

void BucketIndices(const double* lb, const double* ub, size_t n,
                   const GridAxis& xs, int32_t* lower_bucket,
                   int32_t* upper_bucket) {
  const __m256d origin = _mm256_set1_pd(xs.origin);
  const __m256d gap = _mm256_set1_pd(xs.gap);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d count = _mm256_set1_pd(static_cast<double>(xs.count));
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // LowerBucket: ceil((v - x0) / gap), clamped to [0, X] (Eq. 19).
    __m256d lo = _mm256_ceil_pd(_mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(lb + i), origin), gap));
    lo = _mm256_min_pd(_mm256_max_pd(lo, zero), count);
    // UpperBucket: floor((v - x0) / gap) + 1, same clamp (Eq. 20).
    __m256d up = _mm256_add_pd(
        _mm256_floor_pd(_mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(ub + i), origin), gap)),
        one);
    up = _mm256_min_pd(_mm256_max_pd(up, zero), count);
    // Integral and within [0, X <= 2^20] by the clamps: conversion exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(lower_bucket + i),
                     _mm256_cvttpd_epi32(lo));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(upper_bucket + i),
                     _mm256_cvttpd_epi32(up));
  }
  simd_internal::BucketIndicesScalarRange(lb, ub, i, n, xs, lower_bucket,
                                          upper_bucket);
}

// ---------------------------------------------------------------------------
// Pixel evaluation of bucket_sweep's running sums
// ---------------------------------------------------------------------------

/// Scalar evaluation of pixel ix from its channel differences at `r` — the
/// vector loops' tail.
inline void EvaluatePixelScalar(const BucketSweepArgs& a, int ix,
                                const double* r, int channels) {
  double d[kSweepChannelsPadded] = {};
  for (int ch = 0; ch < channels; ++ch) d[ch] = r[ch];
  a.out[ix] =
      DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                            AggregatesFromLanes(d), a.bandwidth, a.weight);
}

/// Epanechnikov (Eq. 5) at every pixel of the line. Pixel ix's 4 channel
/// differences sit at buckets + ix × stride; 4 pixels per 4×4 transpose.
void EvaluateEpan(const BucketSweepArgs& a, size_t stride) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d qyv = _mm256_set1_pd(a.qy);
  const __m256d wv = _mm256_set1_pd(a.weight);
  const __m256d wob2 = _mm256_set1_pd(a.weight / prof.b2);
  const __m256d two = _mm256_set1_pd(2.0);
  int ix = 0;
  for (; ix + 4 <= a.width; ix += 4) {
    const double* r = a.buckets + static_cast<size_t>(ix) * stride;
    __m256d cnt, ax, ay, sq;
    Transpose4x4(_mm256_loadu_pd(r), _mm256_loadu_pd(r + stride),
                 _mm256_loadu_pd(r + 2 * stride),
                 _mm256_loadu_pd(r + 3 * stride), cnt, ax, ay, sq);
    const __m256d qx = _mm256_loadu_pd(a.qx + ix);
    // u = ||q||², dot = q·A, F = w|R| − (w/b²)(|R|u − 2 dot + S) (Eq. 5).
    const __m256d u =
        _mm256_add_pd(_mm256_mul_pd(qx, qx), _mm256_mul_pd(qyv, qyv));
    const __m256d dot =
        _mm256_add_pd(_mm256_mul_pd(qx, ax), _mm256_mul_pd(qyv, ay));
    const __m256d inner = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(cnt, u), _mm256_mul_pd(two, dot)), sq);
    const __m256d f =
        _mm256_sub_pd(_mm256_mul_pd(wv, cnt), _mm256_mul_pd(wob2, inner));
    _mm256_storeu_pd(a.out + ix, _mm256_max_pd(f, zero));
  }
  for (; ix < a.width; ++ix) {
    EvaluatePixelScalar(a, ix, a.buckets + static_cast<size_t>(ix) * stride, 4);
  }
}

/// Quartic at every pixel of the line, from the 10 channel differences
/// (padded to 12) at buckets + ix × stride.
void EvaluateQuartic(const BucketSweepArgs& a, size_t stride) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d qyv = _mm256_set1_pd(a.qy);
  const __m256d wv = _mm256_set1_pd(a.weight);
  const __m256d c1v = _mm256_set1_pd(2.0 / prof.b2);
  const __m256d b4v = _mm256_set1_pd(prof.b2 * prof.b2);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  int ix = 0;
  for (; ix + 4 <= a.width; ix += 4) {
    const double* r0 = a.buckets + static_cast<size_t>(ix) * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r0 + 2 * stride;
    const double* r3 = r0 + 3 * stride;
    __m256d cnt, ax, ay, sq;
    Transpose4x4(_mm256_loadu_pd(r0), _mm256_loadu_pd(r1),
                 _mm256_loadu_pd(r2), _mm256_loadu_pd(r3), cnt, ax, ay, sq);
    __m256d cx, cy, qd, mxx;
    Transpose4x4(_mm256_loadu_pd(r0 + 4), _mm256_loadu_pd(r1 + 4),
                 _mm256_loadu_pd(r2 + 4), _mm256_loadu_pd(r3 + 4), cx, cy,
                 qd, mxx);
    __m256d mxy, myy, pad0, pad1;
    Transpose4x4(_mm256_loadu_pd(r0 + 8), _mm256_loadu_pd(r1 + 8),
                 _mm256_loadu_pd(r2 + 8), _mm256_loadu_pd(r3 + 8), mxy, myy,
                 pad0, pad1);
    (void)pad0;
    (void)pad1;
    const __m256d qx = _mm256_loadu_pd(a.qx + ix);
    const __m256d u =
        _mm256_add_pd(_mm256_mul_pd(qx, qx), _mm256_mul_pd(qyv, qyv));
    const __m256d dot =
        _mm256_add_pd(_mm256_mul_pd(qx, ax), _mm256_mul_pd(qyv, ay));
    // Σd² = |R|u − 2 qᵀA + S
    const __m256d sum_d2 = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(cnt, u), _mm256_mul_pd(two, dot)), sq);
    // qᵀM q, evaluated exactly as the scalar form in kernel.cc.
    const __m256d mt_x =
        _mm256_add_pd(_mm256_mul_pd(mxx, qx), _mm256_mul_pd(mxy, qyv));
    const __m256d mt_y =
        _mm256_add_pd(_mm256_mul_pd(mxy, qx), _mm256_mul_pd(myy, qyv));
    const __m256d qmq =
        _mm256_add_pd(_mm256_mul_pd(qx, mt_x), _mm256_mul_pd(qyv, mt_y));
    const __m256d dot_c =
        _mm256_add_pd(_mm256_mul_pd(qx, cx), _mm256_mul_pd(qyv, cy));
    // Σd⁴ = |R|u² + 4qᵀMq + Q − 4u qᵀA + 2u S − 4 qᵀC, in scalar order.
    __m256d sum_d4 = _mm256_mul_pd(_mm256_mul_pd(cnt, u), u);
    sum_d4 = _mm256_add_pd(sum_d4, _mm256_mul_pd(four, qmq));
    sum_d4 = _mm256_add_pd(sum_d4, qd);
    sum_d4 = _mm256_sub_pd(sum_d4,
                           _mm256_mul_pd(_mm256_mul_pd(four, u), dot));
    sum_d4 =
        _mm256_add_pd(sum_d4, _mm256_mul_pd(_mm256_mul_pd(two, u), sq));
    sum_d4 = _mm256_sub_pd(sum_d4, _mm256_mul_pd(four, dot_c));
    // F = w (|R| − (2/b²) Σd² + Σd⁴/b⁴)
    const __m256d inner =
        _mm256_add_pd(_mm256_sub_pd(cnt, _mm256_mul_pd(c1v, sum_d2)),
                      _mm256_div_pd(sum_d4, b4v));
    _mm256_storeu_pd(a.out + ix,
                     _mm256_max_pd(_mm256_mul_pd(wv, inner), zero));
  }
  for (; ix < a.width; ++ix) {
    EvaluatePixelScalar(a, ix, a.buckets + static_cast<size_t>(ix) * stride,
                        kSweepChannelCount);
  }
}

// ---------------------------------------------------------------------------
// bucket_sweep
// ---------------------------------------------------------------------------
//
// One bucket is BucketStride(kernel) doubles: the channel sums in whole
// registers, then their compensation terms — one 64-byte line for
// Epanechnikov, three registers of each for quartic. Channel vectors are
// built 4 points at a time and transposed to one register per point; each
// point then takes one two-sum per register into its lower bucket and one,
// negated, into its upper bucket, in slice order, so each channel sees the
// scalar reference's sequence of adds. The running sum writes each pixel's
// differences over its own bucket's sums, where the evaluation above reads
// them through the bucket stride.

/// Folds v into the sums at `bucket` and, compensated, the compensation
/// terms `comp` doubles later — NeumaierAdd's arithmetic, per channel.
template <bool kCompensated>
inline void BucketAdd(double* bucket, size_t comp, __m256d v) {
  __m256d sum = _mm256_loadu_pd(bucket);
  if constexpr (kCompensated) {
    __m256d c = _mm256_loadu_pd(bucket + comp);
    TwoSumAccumulate(sum, c, v);
    _mm256_storeu_pd(bucket + comp, c);
  } else {
    sum = _mm256_add_pd(sum, v);
  }
  _mm256_storeu_pd(bucket, sum);
}

/// The running sum over buckets 0..width − 1, kRegisters 4-channel groups
/// per bucket: pixel ix's channel differences overwrite bucket ix's sums.
template <bool kCompensated, int kRegisters>
void RunningSum(const BucketSweepArgs& a) {
  constexpr size_t kComp = 4 * kRegisters;
  constexpr size_t kStride = 2 * kComp;
  __m256d run[kRegisters];
  __m256d run_comp[kRegisters];
  for (int r = 0; r < kRegisters; ++r) {
    run[r] = _mm256_setzero_pd();
    run_comp[r] = _mm256_setzero_pd();
  }
  for (int ix = 0; ix < a.width; ++ix) {
    double* bucket = a.buckets + static_cast<size_t>(ix) * kStride;
    for (int r = 0; r < kRegisters; ++r) {
      double* lane = bucket + 4 * r;
      if constexpr (kCompensated) {
        TwoSumAccumulate(run[r], run_comp[r], _mm256_loadu_pd(lane));
        run_comp[r] =
            _mm256_add_pd(run_comp[r], _mm256_loadu_pd(lane + kComp));
        _mm256_storeu_pd(lane, _mm256_add_pd(run[r], run_comp[r]));
      } else {
        run[r] = _mm256_add_pd(run[r], _mm256_loadu_pd(lane));
        _mm256_storeu_pd(lane, run[r]);
      }
    }
  }
}

void ZeroBuckets(const BucketSweepArgs& a) {
  std::fill(a.buckets,
            a.buckets + (static_cast<size_t>(a.width) + 1) *
                            BucketStride(a.kernel),
            0.0);
}

/// Uniform kernel: each bucket's count is an exact integer, so both
/// summation modes are plain adds and every backend agrees bit for bit.
void BucketSweepUniform(const BucketSweepArgs& a) {
  constexpr size_t kStride = 2;  // BucketStride(kUniform)
  ZeroBuckets(a);
  for (size_t i = 0; i < a.n; ++i) {
    a.buckets[static_cast<size_t>(a.lower_idx[i]) * kStride] += 1.0;
    a.buckets[static_cast<size_t>(a.upper_idx[i]) * kStride] -= 1.0;
  }
  const double wob = a.weight / MakeKernelEvalProfile(a.bandwidth).bandwidth;
  double count = 0.0;
  for (int ix = 0; ix < a.width; ++ix) {
    count += a.buckets[static_cast<size_t>(ix) * kStride];
    a.out[ix] = wob * count;
  }
}

template <bool kCompensated>
void BucketSweepEpan(const BucketSweepArgs& a) {
  constexpr size_t kStride = 8;  // BucketStride(kEpanechnikov)
  ZeroBuckets(a);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const auto scatter = [&](size_t i, __m256d v) {
    BucketAdd<kCompensated>(
        a.buckets + static_cast<size_t>(a.lower_idx[i]) * kStride, 4, v);
    BucketAdd<kCompensated>(
        a.buckets + static_cast<size_t>(a.upper_idx[i]) * kStride, 4,
        _mm256_xor_pd(v, sign));
  };
  const __m256d ox = _mm256_set1_pd(a.origin_x);
  const __m256d oy = _mm256_set1_pd(a.origin_y);
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= a.n; i += 4) {
    const __m256d px = _mm256_sub_pd(_mm256_loadu_pd(a.ex + i), ox);
    const __m256d py = _mm256_sub_pd(_mm256_loadu_pd(a.ey + i), oy);
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(px, px), _mm256_mul_pd(py, py));
    // Channel order (core/sweep_state.h): count Ax Ay S.
    __m256d v0, v1, v2, v3;
    Transpose4x4(one, px, py, s, v0, v1, v2, v3);
    scatter(i, v0);
    scatter(i + 1, v1);
    scatter(i + 2, v2);
    scatter(i + 3, v3);
  }
  for (; i < a.n; ++i) {
    const double px = a.ex[i] - a.origin_x;
    const double py = a.ey[i] - a.origin_y;
    scatter(i, _mm256_set_pd(px * px + py * py, py, px, 1.0));
  }
  RunningSum<kCompensated, 1>(a);
  EvaluateEpan(a, kStride);
}

template <bool kCompensated>
void BucketSweepQuartic(const BucketSweepArgs& a) {
  constexpr size_t kStride = 24;  // BucketStride(kQuartic)
  constexpr size_t kComp = 12;
  ZeroBuckets(a);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const auto scatter = [&](size_t i, __m256d v0, __m256d v1, __m256d v2) {
    double* lower = a.buckets + static_cast<size_t>(a.lower_idx[i]) * kStride;
    BucketAdd<kCompensated>(lower, kComp, v0);
    BucketAdd<kCompensated>(lower + 4, kComp, v1);
    BucketAdd<kCompensated>(lower + 8, kComp, v2);
    double* upper = a.buckets + static_cast<size_t>(a.upper_idx[i]) * kStride;
    BucketAdd<kCompensated>(upper, kComp, _mm256_xor_pd(v0, sign));
    BucketAdd<kCompensated>(upper + 4, kComp, _mm256_xor_pd(v1, sign));
    BucketAdd<kCompensated>(upper + 8, kComp, _mm256_xor_pd(v2, sign));
  };
  const __m256d ox = _mm256_set1_pd(a.origin_x);
  const __m256d oy = _mm256_set1_pd(a.origin_y);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= a.n; i += 4) {
    const __m256d px = _mm256_sub_pd(_mm256_loadu_pd(a.ex + i), ox);
    const __m256d py = _mm256_sub_pd(_mm256_loadu_pd(a.ey + i), oy);
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(px, px), _mm256_mul_pd(py, py));
    // Channel order (core/sweep_state.h): count Ax Ay S | Cx Cy Q Mxx |
    // Mxy Myy 0 0 — same expressions as SweepChannelValues.
    __m256d a0, a1, a2, a3;
    Transpose4x4(one, px, py, s, a0, a1, a2, a3);
    __m256d b0, b1, b2, b3;
    Transpose4x4(_mm256_mul_pd(px, s), _mm256_mul_pd(py, s),
                 _mm256_mul_pd(s, s), _mm256_mul_pd(px, px), b0, b1, b2, b3);
    __m256d c0, c1, c2, c3;
    Transpose4x4(_mm256_mul_pd(px, py), _mm256_mul_pd(py, py), zero, zero, c0,
                 c1, c2, c3);
    scatter(i, a0, b0, c0);
    scatter(i + 1, a1, b1, c1);
    scatter(i + 2, a2, b2, c2);
    scatter(i + 3, a3, b3, c3);
  }
  for (; i < a.n; ++i) {
    const double px = a.ex[i] - a.origin_x;
    const double py = a.ey[i] - a.origin_y;
    const double s = px * px + py * py;
    scatter(i, _mm256_set_pd(s, py, px, 1.0),
            _mm256_set_pd(px * px, s * s, py * s, px * s),
            _mm256_set_pd(0.0, 0.0, py * py, px * py));
  }
  RunningSum<kCompensated, 3>(a);
  EvaluateQuartic(a, kStride);
}

void BucketSweep(const BucketSweepArgs& a) {
  switch (SweepChannels(a.kernel)) {
    case 1:
      BucketSweepUniform(a);
      return;
    case 4:
      if (a.compensated) {
        BucketSweepEpan<true>(a);
      } else {
        BucketSweepEpan<false>(a);
      }
      return;
    case kSweepChannelCount:
      if (a.compensated) {
        BucketSweepQuartic<true>(a);
      } else {
        BucketSweepQuartic<false>(a);
      }
      return;
    default:
      simd_internal::BucketSweepScalar(a);  // unreachable (Gaussian)
      return;
  }
}

constexpr SimdOps kAvx2Ops = {
    SimdLevel::kAvx2,
    &simd_internal::EnvelopeFilterScalar,
    &BoundIntervals,
    &BucketIndices,
    &simd_internal::HistogramScatterScalar,
    &simd_internal::RowSweepScalar,
    &BucketSweep,
};

}  // namespace

const SimdOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace slam

#else  // !defined(__AVX2__)

namespace slam {

const SimdOps* GetAvx2Ops() { return nullptr; }

}  // namespace slam

#endif
