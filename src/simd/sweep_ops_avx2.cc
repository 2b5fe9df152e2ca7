// AVX2 backend: 4 doubles per operation, on x86 with GCC or Clang; on
// other targets this TU degrades to a nullptr getter and dispatch.cc never
// selects the level. The unit is compiled with the build's baseline flags
// plus -ffp-contract=off (see below), and only the functions it defines
// itself are AVX2 code: a target pragma after the includes marks them, so
// every function the headers define keeps the baseline target. An inline
// header function this unit does not inline (as at -O0) is then a weak
// copy without VEX instructions, which the linker may safely hand to any
// other unit. scripts/check_avx2_symbols.py (the avx2_symbols ctest, and a
// Debug build in CI) checks both: the unit exports no function but
// GetAvx2Ops(), and no exported function, GetAvx2Ops() included, contains
// a VEX-encoded instruction.
//
// Bitwise-parity discipline (vs the scalar reference in
// sweep_ops_inline.h):
//  * every vector expression replays the scalar operation sequence lane
//    for lane — same association, same hoisted divisors (weight/b²
//    evaluates identically per pixel whether hoisted or not, since the
//    operands are loop-invariant);
//  * no FMA: the target is avx2 alone, never fma, and -ffp-contract=off
//    stops the compiler from contracting mul+add pairs, so each rounding
//    matches the scalar code (which the default build cannot contract
//    either — no FMA target);
//  * compensation splits each point's channel vector once, at the scalar
//    reference's per-channel powers of two σ, with the same three
//    operations per lane (SplitExact, core/sweep_state.h);
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

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "simd/sweep_ops_inline.h"

// From here to GetAvx2Ops(), every function is compiled for AVX2.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

namespace slam {

namespace {

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
// registers, then as many lo sums — one 64-byte line for Epanechnikov,
// three registers of each for quartic. Channel vectors are built 4 points
// at a time and transposed to one register per point. Compensated, each
// register is split once at its channels' σ (the scalar reference's
// SplitScales); both endpoints then add plainly, hi into the bucket's sums
// and lo into its lo sums, the lower endpoint first and points in slice
// order, so each lane sees the scalar reference's sequence of adds. The
// running sum writes each pixel's differences over its own bucket's sums,
// where the evaluation above reads them through the bucket stride.

/// Adds v to the 4 doubles at `at`, or subtracts it.
template <bool kAdd>
inline void AddAt(double* at, __m256d v) {
  const __m256d sum = _mm256_loadu_pd(at);
  if constexpr (kAdd) {
    _mm256_storeu_pd(at, _mm256_add_pd(sum, v));
  } else {
    _mm256_storeu_pd(at, _mm256_sub_pd(sum, v));
  }
}

/// One register of a point's channel vector into its lower bucket and out
/// of its upper one. Compensated, v is split at `sigma` (SplitExact): hi
/// goes into the sums and lo into the slots `lo_at` doubles later.
template <bool kCompensated>
inline void Scatter(double* lower, double* upper, size_t lo_at,
                    __m256d sigma, __m256d v) {
  if constexpr (kCompensated) {
    const __m256d hi = _mm256_sub_pd(_mm256_add_pd(sigma, v), sigma);
    const __m256d lo = _mm256_sub_pd(v, hi);
    AddAt<true>(lower, hi);
    AddAt<true>(lower + lo_at, lo);
    AddAt<false>(upper, hi);
    AddAt<false>(upper + lo_at, lo);
  } else {
    AddAt<true>(lower, v);
    AddAt<false>(upper, v);
  }
}

/// The running sum over buckets 0..width − 1, kRegisters 4-channel groups
/// per bucket: pixel ix's channel differences overwrite bucket ix's sums.
template <bool kCompensated, int kRegisters>
void RunningSum(const BucketSweepArgs& a) {
  constexpr size_t kLoAt = 4 * kRegisters;
  constexpr size_t kStride = 2 * kLoAt;
  __m256d run[kRegisters];
  __m256d run_lo[kRegisters];
  for (int r = 0; r < kRegisters; ++r) {
    run[r] = _mm256_setzero_pd();
    run_lo[r] = _mm256_setzero_pd();
  }
  for (int ix = 0; ix < a.width; ++ix) {
    double* bucket = a.buckets + static_cast<size_t>(ix) * kStride;
    for (int r = 0; r < kRegisters; ++r) {
      double* lane = bucket + 4 * r;
      run[r] = _mm256_add_pd(run[r], _mm256_loadu_pd(lane));
      if constexpr (kCompensated) {
        run_lo[r] = _mm256_add_pd(run_lo[r], _mm256_loadu_pd(lane + kLoAt));
        _mm256_storeu_pd(lane, _mm256_add_pd(run[r], run_lo[r]));
      } else {
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

/// Bucket `index` of the line, `stride` doubles per bucket.
inline double* BucketAt(const BucketSweepArgs& a, int32_t index,
                        size_t stride) {
  return a.buckets + static_cast<size_t>(index) * stride;
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

/// Epanechnikov's bucket: 4 sums, then 4 lo sums (BucketStride).
constexpr size_t kEpanStride = 8;

/// Point i's 4 channels, register v, into its buckets (Scatter).
template <bool kCompensated>
inline void ScatterEpan(const BucketSweepArgs& a, size_t i, __m256d sigma,
                        __m256d v) {
  Scatter<kCompensated>(BucketAt(a, a.lower_idx[i], kEpanStride),
                        BucketAt(a, a.upper_idx[i], kEpanStride),
                        kEpanStride / 2, sigma, v);
}

/// Quartic's bucket: 12 sums (10 channels and 2 of padding), then 12 lo
/// sums (BucketStride).
constexpr size_t kQuarticStride = 24;

/// Point i's 12 channels, registers v0–v2, into its buckets (Scatter).
template <bool kCompensated>
inline void ScatterQuartic(const BucketSweepArgs& a, size_t i,
                           const __m256d sigma[3], __m256d v0, __m256d v1,
                           __m256d v2) {
  constexpr size_t kLoAt = kQuarticStride / 2;
  double* lower = BucketAt(a, a.lower_idx[i], kQuarticStride);
  double* upper = BucketAt(a, a.upper_idx[i], kQuarticStride);
  Scatter<kCompensated>(lower, upper, kLoAt, sigma[0], v0);
  Scatter<kCompensated>(lower + 4, upper + 4, kLoAt, sigma[1], v1);
  Scatter<kCompensated>(lower + 8, upper + 8, kLoAt, sigma[2], v2);
}

template <bool kCompensated>
void BucketSweepEpan(const BucketSweepArgs& a) {
  ZeroBuckets(a);
  double scales[kSweepChannelsPadded] = {};
  if constexpr (kCompensated) simd_internal::SplitScales(a, scales);
  const __m256d sigma = _mm256_loadu_pd(scales);
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
    ScatterEpan<kCompensated>(a, i, sigma, v0);
    ScatterEpan<kCompensated>(a, i + 1, sigma, v1);
    ScatterEpan<kCompensated>(a, i + 2, sigma, v2);
    ScatterEpan<kCompensated>(a, i + 3, sigma, v3);
  }
  for (; i < a.n; ++i) {
    const double px = a.ex[i] - a.origin_x;
    const double py = a.ey[i] - a.origin_y;
    ScatterEpan<kCompensated>(a, i, sigma,
                              _mm256_set_pd(px * px + py * py, py, px, 1.0));
  }
  RunningSum<kCompensated, 1>(a);
  EvaluateEpan(a, kEpanStride);
}

template <bool kCompensated>
void BucketSweepQuartic(const BucketSweepArgs& a) {
  ZeroBuckets(a);
  double scales[kSweepChannelsPadded] = {};
  if constexpr (kCompensated) simd_internal::SplitScales(a, scales);
  const __m256d sigma[3] = {_mm256_loadu_pd(scales),
                            _mm256_loadu_pd(scales + 4),
                            _mm256_loadu_pd(scales + 8)};
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
    ScatterQuartic<kCompensated>(a, i, sigma, a0, b0, c0);
    ScatterQuartic<kCompensated>(a, i + 1, sigma, a1, b1, c1);
    ScatterQuartic<kCompensated>(a, i + 2, sigma, a2, b2, c2);
    ScatterQuartic<kCompensated>(a, i + 3, sigma, a3, b3, c3);
  }
  for (; i < a.n; ++i) {
    const double px = a.ex[i] - a.origin_x;
    const double py = a.ey[i] - a.origin_y;
    const double s = px * px + py * py;
    ScatterQuartic<kCompensated>(
        a, i, sigma, _mm256_set_pd(s, py, px, 1.0),
        _mm256_set_pd(px * px, s * s, py * s, px * s),
        _mm256_set_pd(0.0, 0.0, py * py, px * py));
  }
  RunningSum<kCompensated, 3>(a);
  EvaluateQuartic(a, kQuarticStride);
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
}  // namespace slam

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

namespace slam {

// Baseline code: dispatch.cc calls this before it checks the CPU.
const SimdOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace slam

#else  // not x86 with GCC or Clang

namespace slam {

const SimdOps* GetAvx2Ops() { return nullptr; }

}  // namespace slam

#endif
