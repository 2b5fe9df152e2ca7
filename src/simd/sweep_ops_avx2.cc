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
// Layout: row_sweep's pass 1 walks the endpoint runs keeping the entire
// L/U SoA state (core/sweep_state.h channel order) in registers — one
// __m256d per 4 channels, 4 (Epanechnikov) or 12 (quartic) registers total
// — and snapshots the per-pixel channel differences into interleaved
// scratch lanes. bucket_sweep leaves them in its bucket lane instead. Both
// then share one evaluation that reads 4 pixels through a stride,
// transposes 4×4, and evaluates the closed-form polynomial across pixels.
// The uniform kernel needs no per-endpoint arithmetic at all: its count is
// the difference of the run offsets, or a running sum of exact bucket
// counts.
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
// envelope_filter
// ---------------------------------------------------------------------------

// Left-packing permutations for the compressed envelope store, indexed by
// the RAW movemask of the unpacked register (whose lanes are in point
// order 0,2,1,3): entry [mask][...] lists the 32-bit lane pairs of the
// surviving doubles in ascending *point* order, for
// _mm256_permutevar8x32_ps (AVX2 has no double compress; permuting the
// float view is the standard workaround). Folding the 0,2,1,3 -> 0,1,2,3
// reorder into the table saves two cross-lane permutes per iteration —
// shuffle-port throughput is what bounds this loop. Trailing slots are
// don't-cares (zero).
//
// Lane L of the unpacked register holds point {0,2,1,3}[L], so mask bit
// 0,1,2,3 is point 0,2,1,3; each table entry lists lane pairs (2L, 2L+1)
// of the set bits' lanes, ordered by point index.
alignas(32) constexpr int32_t kCompressLut[16][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},   // ----
    {0, 1, 0, 0, 0, 0, 0, 0},   // p0
    {2, 3, 0, 0, 0, 0, 0, 0},   // p2        (bit 1 = lane 1 = point 2)
    {0, 1, 2, 3, 0, 0, 0, 0},   // p0 p2
    {4, 5, 0, 0, 0, 0, 0, 0},   // p1        (bit 2 = lane 2 = point 1)
    {0, 1, 4, 5, 0, 0, 0, 0},   // p0 p1
    {4, 5, 2, 3, 0, 0, 0, 0},   // p1 p2  -> lanes 2, 1
    {0, 1, 4, 5, 2, 3, 0, 0},   // p0 p1 p2
    {6, 7, 0, 0, 0, 0, 0, 0},   // p3
    {0, 1, 6, 7, 0, 0, 0, 0},   // p0 p3
    {2, 3, 6, 7, 0, 0, 0, 0},   // p2 p3
    {0, 1, 2, 3, 6, 7, 0, 0},   // p0 p2 p3
    {4, 5, 6, 7, 0, 0, 0, 0},   // p1 p3
    {0, 1, 4, 5, 6, 7, 0, 0},   // p0 p1 p3
    {4, 5, 2, 3, 6, 7, 0, 0},   // p1 p2 p3
    {0, 1, 4, 5, 2, 3, 6, 7}};  // all -> lanes 0, 2, 1, 3

size_t EnvelopeFilter(std::span<const Point> points, double k,
                      double bandwidth, double* ex, double* ey) {
  const size_t n = points.size();
  // An empty span may have no array behind it to point into.
  if (n == 0) return 0;
  const double* base = &points.data()->x;  // Point is two packed doubles
  const __m256d kv = _mm256_set1_pd(k);
  const __m256d bv = _mm256_set1_pd(bandwidth);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  size_t m = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // (x0 y0 x1 y1) and (x2 y2 x3 y3) -> ys in point order 0,2,1,3; the
    // membership test runs on that raw lane order, and the compress LUT
    // restores point order, so nothing but the two unpacks competes for
    // the shuffle port until a survivor actually needs storing.
    const __m256d p01 = _mm256_loadu_pd(base + 2 * i);
    const __m256d p23 = _mm256_loadu_pd(base + 2 * i + 4);
    const __m256d ys = _mm256_unpackhi_pd(p01, p23);
    const __m256d ady = _mm256_andnot_pd(sign_mask, _mm256_sub_pd(kv, ys));
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(ady, bv, _CMP_LE_OQ));
    // No skip branch: with scattered survivors a "skip empty packs" branch
    // is data-dependent and mispredicts its way to ~4x the loop latency.
    // An unconditional compress store of a mask-0 pack writes 4 don't-care
    // lanes at the cursor and advances it by 0 — harmless, branch-free.
    const __m256d xs = _mm256_unpacklo_pd(p01, p23);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompressLut[mask]));
    // Full-register stores at the cursor: the survivors land at ex[m..),
    // the don't-care lanes are overwritten by the next store or fall in
    // [m, n) scratch the caller sized for exactly this purpose.
    _mm256_storeu_pd(
        ex + m, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                    _mm256_castpd_ps(xs), perm)));
    _mm256_storeu_pd(
        ey + m, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                    _mm256_castpd_ps(ys), perm)));
    m += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
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
// histogram_scatter
// ---------------------------------------------------------------------------

/// Inclusive prefix sum of 8 int32 lanes: two within-128-bit-lane shifted
/// adds, then the low lane's total carried into the high lane. Integer adds
/// are associative, so regrouping is exact — no parity discipline needed.
inline __m256i PrefixSum8(__m256i v) {
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
  const __m256i lane_totals =
      _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 3, 3));
  // imm 0x08: low half zeroed, high half = src low half — the low lane's
  // running total positioned under the high lane only.
  const __m256i carry_up =
      _mm256_permute2x128_si256(lane_totals, lane_totals, 0x08);
  return _mm256_add_epi32(v, carry_up);
}

void HistogramScatter(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
  simd_internal::HistogramCountScalar(a);
  // The X-length pass, 8 bins per op with a broadcast running carry. The
  // count and scatter passes stay scalar (see the op comment in
  // sweep_ops.h).
  const __m256i splat_last = _mm256_set1_epi32(7);
  for (int32_t* offsets : {a.lower_offsets, a.upper_offsets}) {
    __m256i carry = _mm256_setzero_si256();
    size_t b = 0;
    for (; b + 8 <= bins; b += 8) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(offsets + b));
      v = _mm256_add_epi32(PrefixSum8(v), carry);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(offsets + b), v);
      carry = _mm256_permutevar8x32_epi32(v, splat_last);
    }
    int32_t run = (b > 0) ? offsets[b - 1] : 0;
    for (; b < bins; ++b) {
      run += offsets[b];
      offsets[b] = run;
    }
  }
  simd_internal::HistogramScatterEndpointsScalar(a);
}

// ---------------------------------------------------------------------------
// Pixel evaluation, shared by row_sweep and bucket_sweep
// ---------------------------------------------------------------------------

/// What the closed-form evaluation reads besides the channel differences:
/// the fields RowSweepArgs and BucketSweepArgs share.
struct PixelLine {
  KernelType kernel;
  int width;
  double bandwidth;
  double weight;
  double qy;
  const double* qx;
  double* out;
};

template <typename Args>
PixelLine LineOf(const Args& a) {
  return {a.kernel, a.width, a.bandwidth, a.weight, a.qy, a.qx, a.out};
}

/// Scalar evaluation of pixel ix from its channel differences at `r` — the
/// vector loops' tail.
inline void EvaluatePixelScalar(const PixelLine& a, int ix, const double* r,
                                int channels) {
  double d[kSweepChannelsPadded] = {};
  for (int ch = 0; ch < channels; ++ch) d[ch] = r[ch];
  a.out[ix] =
      DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                            AggregatesFromLanes(d), a.bandwidth, a.weight);
}

/// Epanechnikov (Eq. 5) at every pixel of the line. Pixel ix's 4 channel
/// differences sit at lanes + ix × stride; 4 pixels per 4×4 transpose.
void EvaluateEpan(const PixelLine& a, const double* lanes, size_t stride) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d qyv = _mm256_set1_pd(a.qy);
  const __m256d wv = _mm256_set1_pd(a.weight);
  const __m256d wob2 = _mm256_set1_pd(a.weight / prof.b2);
  const __m256d two = _mm256_set1_pd(2.0);
  int ix = 0;
  for (; ix + 4 <= a.width; ix += 4) {
    const double* r = lanes + static_cast<size_t>(ix) * stride;
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
    EvaluatePixelScalar(a, ix, lanes + static_cast<size_t>(ix) * stride, 4);
  }
}

/// Quartic at every pixel of the line, from the 10 channel differences
/// (padded to 12) at lanes + ix × stride.
void EvaluateQuartic(const PixelLine& a, const double* lanes, size_t stride) {
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
    const double* r0 = lanes + static_cast<size_t>(ix) * stride;
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
    EvaluatePixelScalar(a, ix, lanes + static_cast<size_t>(ix) * stride,
                        kSweepChannelCount);
  }
}

// ---------------------------------------------------------------------------
// row_sweep
// ---------------------------------------------------------------------------

/// Uniform kernel: count at pixel i is exactly the difference of the run
/// offsets (the scalar path's repeated +1.0 adds are exact integers, and
/// the count lane's compensation terms are identically zero).
void RowSweepUniform(const RowSweepArgs& a) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(a.bandwidth);
  const double wob = a.weight / prof.bandwidth;
  const __m256d wobv = _mm256_set1_pd(wob);
  int ix = 0;
  for (; ix + 4 <= a.width; ix += 4) {
    const __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a.lower.offsets + ix + 1));
    const __m128i up = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a.upper.offsets + ix + 1));
    const __m256d cnt = _mm256_cvtepi32_pd(_mm_sub_epi32(lo, up));
    _mm256_storeu_pd(a.out + ix, _mm256_mul_pd(wobv, cnt));
  }
  for (; ix < a.width; ++ix) {
    a.out[ix] = wob * static_cast<double>(a.lower.offsets[ix + 1] -
                                          a.upper.offsets[ix + 1]);
  }
}

/// Epanechnikov: 4 live channels = one register per accumulator component.
template <bool kCompensated>
void RowSweepEpan(const RowSweepArgs& a, RowSweepScratch* scratch) {
  scratch->lanes.resize(static_cast<size_t>(a.width) * 4);
  double* lanes = scratch->lanes.data();
  const __m256d zero = _mm256_setzero_pd();
  __m256d ls = zero, lc = zero, us = zero, uc = zero;
  const auto accumulate = [](__m256d& sum, __m256d& comp,
                             const EndpointRuns& runs, int32_t begin,
                             int32_t end) {
    for (int32_t i = begin; i < end; ++i) {
      const double px = runs.px[i];
      const double py = runs.py[i];
      const double s = px * px + py * py;
      const __m256d v = _mm256_set_pd(s, py, px, 1.0);
      if constexpr (kCompensated) {
        TwoSumAccumulate(sum, comp, v);
      } else {
        sum = _mm256_add_pd(sum, v);
      }
    }
  };
  for (int ix = 0; ix < a.width; ++ix) {
    accumulate(ls, lc, a.lower, a.lower.offsets[ix],
               a.lower.offsets[ix + 1]);
    accumulate(us, uc, a.upper, a.upper.offsets[ix],
               a.upper.offsets[ix + 1]);
    __m256d d = _mm256_sub_pd(ls, us);
    if constexpr (kCompensated) {
      d = _mm256_add_pd(d, _mm256_sub_pd(lc, uc));
    }
    _mm256_storeu_pd(lanes + static_cast<size_t>(ix) * 4, d);
  }
  EvaluateEpan(LineOf(a), lanes, 4);
}

/// Quartic: 10 live channels padded to 12 = three registers per component.
template <bool kCompensated>
void RowSweepQuartic(const RowSweepArgs& a, RowSweepScratch* scratch) {
  scratch->lanes.resize(static_cast<size_t>(a.width) * 12);
  double* lanes = scratch->lanes.data();
  const __m256d zero = _mm256_setzero_pd();
  __m256d ls0 = zero, ls1 = zero, ls2 = zero;
  __m256d lc0 = zero, lc1 = zero, lc2 = zero;
  __m256d us0 = zero, us1 = zero, us2 = zero;
  __m256d uc0 = zero, uc1 = zero, uc2 = zero;
  const auto accumulate = [](__m256d& s0, __m256d& s1, __m256d& s2,
                             __m256d& c0, __m256d& c1, __m256d& c2,
                             const EndpointRuns& runs, int32_t begin,
                             int32_t end) {
    for (int32_t i = begin; i < end; ++i) {
      const double px = runs.px[i];
      const double py = runs.py[i];
      const double s = px * px + py * py;
      // Channel order (core/sweep_state.h): count Ax Ay S | Cx Cy Q Mxx |
      // Mxy Myy 0 0 — same expressions as SweepChannelValues.
      const __m256d v0 = _mm256_set_pd(s, py, px, 1.0);
      const __m256d v1 = _mm256_set_pd(px * px, s * s, py * s, px * s);
      const __m256d v2 = _mm256_set_pd(0.0, 0.0, py * py, px * py);
      if constexpr (kCompensated) {
        TwoSumAccumulate(s0, c0, v0);
        TwoSumAccumulate(s1, c1, v1);
        TwoSumAccumulate(s2, c2, v2);
      } else {
        s0 = _mm256_add_pd(s0, v0);
        s1 = _mm256_add_pd(s1, v1);
        s2 = _mm256_add_pd(s2, v2);
      }
    }
  };
  for (int ix = 0; ix < a.width; ++ix) {
    accumulate(ls0, ls1, ls2, lc0, lc1, lc2, a.lower, a.lower.offsets[ix],
               a.lower.offsets[ix + 1]);
    accumulate(us0, us1, us2, uc0, uc1, uc2, a.upper, a.upper.offsets[ix],
               a.upper.offsets[ix + 1]);
    __m256d d0 = _mm256_sub_pd(ls0, us0);
    __m256d d1 = _mm256_sub_pd(ls1, us1);
    __m256d d2 = _mm256_sub_pd(ls2, us2);
    if constexpr (kCompensated) {
      d0 = _mm256_add_pd(d0, _mm256_sub_pd(lc0, uc0));
      d1 = _mm256_add_pd(d1, _mm256_sub_pd(lc1, uc1));
      d2 = _mm256_add_pd(d2, _mm256_sub_pd(lc2, uc2));
    }
    double* row = lanes + static_cast<size_t>(ix) * 12;
    _mm256_storeu_pd(row, d0);
    _mm256_storeu_pd(row + 4, d1);
    _mm256_storeu_pd(row + 8, d2);
  }
  EvaluateQuartic(LineOf(a), lanes, 12);
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
// differences over its own bucket's sums, where the shared evaluation reads
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
  EvaluateEpan(LineOf(a), a.buckets, kStride);
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
  EvaluateQuartic(LineOf(a), a.buckets, kStride);
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
    &EnvelopeFilter,
    &BoundIntervals,
    &BucketIndices,
    &HistogramScatter,
    &RowSweep,
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
