// The sweep line's running state (paper Section 3.4): the aggregates of
//   L_ell = {p in E(k) : LB_k(p) <= ell.x}   (lower bounds passed)
//   U_ell = {p in E(k) : UB_k(p) <  ell.x}   (upper bounds passed)
// R(q) = L \ U when the sweep line sits on q.x, so the range aggregates are
// the component-wise difference (Lemmas 3 and 5).
//
// Note the strict inequality in U: the paper uses <= (Eq. 11), under which
// a point at distance exactly b from q is dropped — harmless for the
// Epanechnikov/quartic kernels (their value at b is 0) but off by w/b for
// the uniform kernel. The strict form matches direct evaluation
// (dist <= b contributes) for every kernel, so all methods agree bit-wise
// on boundary points.
//
// Two state layouts live here:
//  * SweepStateT — the original array-of-structs accumulator pair over
//    RangeAggregates / CompensatedRangeAggregates. Kept as the readable
//    reference implementation and for the unit tests that pin the sweep
//    semantics.
//  * SoA lanes — the layout the sweeps actually run on since the SIMD
//    refactor (DESIGN.md §11): each aggregate channel is one slot of a
//    contiguous, 32-byte-aligned array, with a parallel array of Neumaier
//    compensation terms. The direct entry's row sweep keeps the L/U
//    state register-resident across a row in 4-channel registers; the
//    engine's bucket sums (simd/sweep_ops.h, bucket_sweep) store one
//    group per pixel bucket: the hi parts of an exact split
//    (SplitScale, SplitExact), then the lo parts. Channel values, channel
//    count per kernel and the split are defined here so scalar and vector
//    backends cannot drift.
//
// Because addition is commutative, the aggregates of L \ U at a pixel
// depend only on the *set* of endpoints applied before it — only each
// pixel bucket's sum matters (DESIGN.md §12). The engine therefore adds
// v(p) into its lower bucket, subtracts it from its upper bucket and keeps
// one running sum of the buckets, never ordering an endpoint; the direct
// entry feeds these accumulators per-pixel runs from a counting sort, in
// any order within a run. (The rounding does depend on the order of the
// adds at the last-ulp level — in the bucket pass only that of the tiny lo
// sums, since its hi sums are exact; the 1e-9 oracle bound is what the
// methods promise, and it holds for any order.)
#pragma once

#include <cmath>
#include <cstddef>

#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "util/units.h"

namespace slam {

/// Origin of the row-local evaluation frame shared by the sweep variants:
/// the row's x-center paired with the row's own y. Accumulating p − origin
/// and querying at q − origin keeps every aggregate magnitude at the scale
/// of the row extent plus bandwidth, independent of how far the map
/// projection puts the viewport from (0, 0) — the fix for the catastrophic
/// cancellation Langrené & Warin document for fast-sum KDE. Exact for the
/// density: every kernel in Table 2 depends only on q − p.
inline Point RowLocalOrigin(const GridAxis& xs, WorldY row_y) {
  return {0.5 * (xs.origin + xs.last()), row_y.value()};
}

/// Templated over the aggregate accumulator so the compensated variant
/// (CompensatedRangeAggregates, ComputeOptions::compensated_aggregates)
/// shares the sweep logic with the plain one.
template <typename Aggregates>
struct SweepStateT {
  Aggregates lower;  // aggregates of L_ell
  Aggregates upper;  // aggregates of U_ell

  void PassLowerBound(const Point& p) { lower.Add(p); }
  void PassUpperBound(const Point& p) { upper.Add(p); }

  void Reset() {
    lower = Aggregates{};
    upper = Aggregates{};
  }

  /// Exact density at pixel q (Lemma 3 / Lemma 5 + Eq. 5).
  double Density(KernelType kernel, const Point& q, double bandwidth,
                 double weight) const {
    return DensityFromAggregates(kernel, q, lower.Minus(upper), bandwidth,
                                 weight);
  }
};

using SweepState = SweepStateT<RangeAggregates>;
using CompensatedSweepState = SweepStateT<CompensatedRangeAggregates>;

// ---------------------------------------------------------------------------
// Structure-of-arrays sweep state
// ---------------------------------------------------------------------------

/// Fixed channel order of the SoA aggregate lanes. The first
/// SweepChannels(kernel) channels are live for a given kernel; the rest are
/// never written and stay zero, so the uniform/Epanechnikov sweeps skip the
/// quartic-only moment arithmetic entirely (the big scalar win of the SoA
/// layout, independent of vectorization).
enum SweepChannel : int {
  kChCount = 0,   // |R|
  kChSumX = 1,    // A.x
  kChSumY = 2,    // A.y
  kChSumSq = 3,   // S
  kChSumSqPX = 4,  // C.x
  kChSumSqPY = 5,  // C.y
  kChSumQuad = 6,  // Q
  kChMxx = 7,      // M.xx
  kChMxy = 8,      // M.xy
  kChMyy = 9,      // M.yy
  kSweepChannelCount = 10,
  /// Lane arrays are padded to a multiple of 4 doubles so a 256-bit backend
  /// processes channels in whole register loads with no tail.
  kSweepChannelsPadded = 12,
};

/// Live channel count per kernel: 1 (uniform), 4 (Epanechnikov: count, A,
/// S) or kSweepChannelCount (quartic: + C, Q, M). Distinct from
/// AggregateArity, which counts the 9 distinct scalar *moments* of the
/// decomposition for the space model; here A and C contribute two lanes
/// each because x and y occupy separate slots.
inline int SweepChannels(KernelType kernel) {
  switch (kernel) {
    case KernelType::kUniform:
      return 1;
    case KernelType::kEpanechnikov:
      return 4;
    case KernelType::kQuartic:
      return kSweepChannelCount;
    case KernelType::kGaussian:
      return 0;  // no decomposition; the sweeps reject Gaussian upstream
  }
  return 0;
}

/// The per-endpoint channel value vector v(p): adding endpoint p to an
/// aggregate set adds v(p) channel-wise. Mirrors RangeAggregates::Add /
/// CompensatedRangeAggregates::Add expression for expression so the SoA
/// sweep reproduces the AoS reference bit for bit.
inline void SweepChannelValues(double px, double py,
                               double v[kSweepChannelsPadded]) {
  const double s = px * px + py * py;  // Point::SquaredNorm
  v[kChCount] = 1.0;
  v[kChSumX] = px;
  v[kChSumY] = py;
  v[kChSumSq] = s;
  v[kChSumSqPX] = px * s;
  v[kChSumSqPY] = py * s;
  v[kChSumQuad] = s * s;
  v[kChMxx] = px * px;
  v[kChMxy] = px * py;
  v[kChMyy] = py * py;
  v[kSweepChannelCount] = 0.0;
  v[kSweepChannelCount + 1] = 0.0;
}

/// The scale σ of an error-free split (Rump, Ogita & Oishi's
/// ExtractVector) for the values of n points, each at most `bound` in
/// magnitude: the smallest power of two at least 4 · n · bound (1 when
/// that is 0). Split at σ (SplitExact), every hi part is a multiple of
/// 2^-53 σ no larger than about `bound`, so no sum of at most 2n of them —
/// the two endpoints of every point, in any order and any subset —
/// reaches σ: every such sum is exact. σ is twice what that needs, so
/// values a little past `bound` still sum exactly.
inline double SplitScale(size_t n, double bound) {
  int exponent = 0;
  const double mantissa =
      std::frexp(4.0 * static_cast<double>(n) * bound, &exponent);
  return std::ldexp(mantissa == 0.5 ? 0.5 : 1.0, exponent);
}

/// Splits v at scale σ (SplitScale) into hi = (σ + v) − σ and lo = v − hi.
/// For |v| <= σ both operations are exact: hi + lo == v, hi is a multiple
/// of 2^-53 σ, and |lo| <= 2^-53 σ. The bucket pass adds hi and lo into
/// separate sums, so only the tiny lo sums round.
inline void SplitExact(double sigma, double v, double& hi, double& lo) {
  hi = (sigma + v) - sigma;
  lo = v - hi;
}

/// One side (L or U) of the SoA sweep state: contiguous sum lanes plus
/// contiguous Neumaier compensation lanes. 32-byte aligned so vector
/// backends use aligned register loads; zero-initialized.
struct alignas(32) SoaAccumulator {
  double sums[kSweepChannelsPadded] = {};
  double comps[kSweepChannelsPadded] = {};

  /// Folds endpoint (px, py) into the first `channels` lanes.
  /// Compensated variant: the count lane is an integer sum (exact until
  /// 2^53, its compensation term stays exactly 0) and every other lane
  /// takes one Neumaier step — identical arithmetic to
  /// CompensatedRangeAggregates::Add.
  template <bool kCompensated>
  void Add(double px, double py, int channels) {
    double v[kSweepChannelsPadded];
    SweepChannelValues(px, py, v);
    if constexpr (kCompensated) {
      sums[kChCount] += 1.0;
      for (int ch = 1; ch < channels; ++ch) {
        NeumaierAdd(sums[ch], comps[ch], v[ch]);
      }
    } else {
      for (int ch = 0; ch < channels; ++ch) sums[ch] += v[ch];
    }
  }
};

/// D = L − U, folding the compensation difference in after the primary
/// difference exactly as CompensatedRangeAggregates::Minus does (the count
/// lane's compensation terms are identically +0, so folding them uniformly
/// is bitwise equal to skipping the count lane). Writes the first
/// `channels` lanes of `d`; callers must have zeroed the rest once.
template <bool kCompensated>
inline void SoaDifference(const SoaAccumulator& lower,
                          const SoaAccumulator& upper, int channels,
                          double d[kSweepChannelsPadded]) {
  for (int ch = 0; ch < channels; ++ch) {
    double r = lower.sums[ch] - upper.sums[ch];
    if constexpr (kCompensated) {
      r += lower.comps[ch] - upper.comps[ch];
    }
    d[ch] = r;
  }
}

/// View of a channel-lane difference vector as the AoS aggregate struct the
/// closed-form evaluator takes. Unwritten lanes must be zero.
inline RangeAggregates AggregatesFromLanes(
    const double d[kSweepChannelsPadded]) {
  RangeAggregates agg;
  agg.count = d[kChCount];
  agg.sum = {d[kChSumX], d[kChSumY]};
  agg.sum_sq = d[kChSumSq];
  agg.sum_sq_p = {d[kChSumSqPX], d[kChSumSqPY]};
  agg.sum_quad = d[kChSumQuad];
  agg.m_xx = d[kChMxx];
  agg.m_xy = d[kChMxy];
  agg.m_yy = d[kChMyy];
  return agg;
}

}  // namespace slam
