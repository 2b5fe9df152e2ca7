// Internal to src/simd/: the scalar reference implementations of the line
// passes, shared between the scalar backend (which uses them whole) and
// the vector backends (which use them for remainder tails and for the
// passes they leave scalar). Header-only so each backend translation unit
// compiles them with its own (contraction-free) flag set — and with
// internal linkage, so each unit keeps its own copy. The AVX2 unit
// includes this header before its target pragma, so its copy is baseline
// code, and the internal linkage keeps it private: the avx2_symbols ctest
// (scripts/check_avx2_symbols.py) fails if that unit defines a global or
// weak function other than GetAvx2Ops.
//
// Everything here mirrors the pre-SoA sweep arithmetic operation for
// operation — see the bitwise-parity notes in sweep_ops.h. Changing an
// expression here changes the reference the vector paths and the oracle
// tests are held against; don't, unless the AoS originals in
// core/sweep_state.h / core/bounds.cc change too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/slam_bucket.h"
#include "core/sweep_state.h"
#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/sweep_ops.h"
#include "util/logging.h"

namespace slam::simd_internal {
namespace {

inline size_t EnvelopeFilterScalar(std::span<const Point> points, double k,
                                   double bandwidth, double* ex, double* ey) {
  size_t m = 0;
  for (const Point& p : points) {
    if (std::abs(k - p.y) <= bandwidth) {
      ex[m] = p.x;
      ey[m] = p.y;
      ++m;
    }
  }
  return m;
}

/// Interval computation over the index range [begin, end) — the vector
/// backends call this for their tail elements.
inline void BoundIntervalsScalarRange(const double* ex, const double* ey,
                                      size_t begin, size_t end, double k,
                                      double bandwidth, double* lb,
                                      double* ub) {
  const double b2 = bandwidth * bandwidth;
  for (size_t i = begin; i < end; ++i) {
    const double dy = k - ey[i];
    const double rem = b2 - dy * dy;
    // max() guards the tiny negative remainder FP can produce at |dy| == b
    // (same guard as core/bounds.cc).
    const double half_width = std::sqrt(std::max(rem, 0.0));
    lb[i] = ex[i] - half_width;
    ub[i] = ex[i] + half_width;
  }
}

inline void BucketIndicesScalarRange(const double* lb, const double* ub,
                                     size_t begin, size_t end,
                                     const GridAxis& xs,
                                     int32_t* lower_bucket,
                                     int32_t* upper_bucket) {
  for (size_t i = begin; i < end; ++i) {
    lower_bucket[i] = LowerBucket(WorldX(lb[i]), xs);
    upper_bucket[i] = UpperBucket(WorldX(ub[i]), xs);
  }
}

/// The reference counting sort (sweep_ops.h, histogram_scatter) in three
/// passes, all exact integer/translation work: histogram the bucket indices
/// (shifted by one for the exclusive scan), prefix-sum into the run
/// offsets, then scatter the endpoint coordinates — translated into the
/// row-local frame — through per-bucket cursors. The scatter preserves
/// input order within a bucket (stable), which is all the
/// run-order-irrelevance invariant (DESIGN.md §12) asks.
inline void HistogramScatterScalar(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
  std::fill(a.lower_offsets, a.lower_offsets + bins, 0);
  std::fill(a.upper_offsets, a.upper_offsets + bins, 0);
  for (size_t i = 0; i < a.n; ++i) {
    // Through size_t: the bucket can legitimately be X itself, and X + 1
    // in `int` is UB at X = INT_MAX.
    ++a.lower_offsets[static_cast<size_t>(a.lower_idx[i]) + 1];
    ++a.upper_offsets[static_cast<size_t>(a.upper_idx[i]) + 1];
  }
  for (size_t b = 1; b < bins; ++b) {
    a.lower_offsets[b] += a.lower_offsets[b - 1];
    a.upper_offsets[b] += a.upper_offsets[b - 1];
  }
  std::copy(a.lower_offsets, a.lower_offsets + bins - 1, a.lower_cursor);
  std::copy(a.upper_offsets, a.upper_offsets + bins - 1, a.upper_cursor);
  for (size_t i = 0; i < a.n; ++i) {
    const size_t lo = static_cast<size_t>(
        a.lower_cursor[static_cast<size_t>(a.lower_idx[i])]++);
    const size_t up = static_cast<size_t>(
        a.upper_cursor[static_cast<size_t>(a.upper_idx[i])]++);
    a.lower_px[lo] = a.ex[i] - a.origin_x;
    a.lower_py[lo] = a.ey[i] - a.origin_y;
    a.upper_px[up] = a.ex[i] - a.origin_x;
    a.upper_py[up] = a.ey[i] - a.origin_y;
  }
}

/// The reference row sweep: SoA accumulators, one pixel at a time.
template <bool kCompensated>
void RowSweepScalarImpl(const RowSweepArgs& a) {
  const int channels = SweepChannels(a.kernel);
  SoaAccumulator lower;
  SoaAccumulator upper;
  double d[kSweepChannelsPadded] = {};
  for (int ix = 0; ix < a.width; ++ix) {
    for (int32_t i = a.lower.offsets[ix]; i < a.lower.offsets[ix + 1]; ++i) {
      lower.Add<kCompensated>(a.lower.px[i], a.lower.py[i], channels);
    }
    for (int32_t i = a.upper.offsets[ix]; i < a.upper.offsets[ix + 1]; ++i) {
      upper.Add<kCompensated>(a.upper.px[i], a.upper.py[i], channels);
    }
    SoaDifference<kCompensated>(lower, upper, channels, d);
    a.out[ix] =
        DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                              AggregatesFromLanes(d), a.bandwidth, a.weight);
  }
}

inline void RowSweepScalar(const RowSweepArgs& a, RowSweepScratch* /*s*/) {
  if (a.compensated) {
    RowSweepScalarImpl<true>(a);
  } else {
    RowSweepScalarImpl<false>(a);
  }
}

/// The bound BucketSweepArgs states on a point's row-local coordinates:
/// |px| up to the farther pixel's |qx| plus b, |py| up to b.
inline Point SplitBound(const BucketSweepArgs& a) {
  const double span =
      a.width > 0 ? std::max(std::abs(a.qx[0]), std::abs(a.qx[a.width - 1]))
                  : 0.0;
  return {span + a.bandwidth, a.bandwidth};
}

/// σ of each live channel's split for one line (SplitScale,
/// core/sweep_state.h): the line's n channel vectors are bounded by the
/// vector of the bound point, because rounding is monotone. The other
/// entries are left alone; a zero σ splits their zero values into zeros.
inline void SplitScales(const BucketSweepArgs& a,
                        double sigma[kSweepChannelsPadded]) {
  const Point bound = SplitBound(a);
  double v[kSweepChannelsPadded];
  SweepChannelValues(bound.x, bound.y, v);
  for (int ch = 0; ch < SweepChannels(a.kernel); ++ch) {
    sigma[ch] = SplitScale(a.n, v[ch]);
  }
}

/// The reference bucket pass (BucketSweepArgs). Compensated, each point's
/// channel value v is split once at its channel's σ (SplitExact): both
/// endpoints add hi into the bucket's sums and lo into the slots after
/// them, the lower endpoint first, points in slice order. The running sum
/// adds both halves too and evaluates each pixel at hi + lo. The hi sums
/// are exact at both levels in any order, so only the lo sums round. The
/// count channel adds plainly, as in SoaAccumulator::Add: its sums are
/// exact integers, so its lo slots stay +0 (what splitting 1 gives). The
/// uncompensated form adds plainly everywhere.
template <bool kCompensated>
void BucketSweepScalarImpl(const BucketSweepArgs& a) {
  const int channels = SweepChannels(a.kernel);
  const size_t stride = BucketStride(a.kernel);
  // A bucket's lo sums follow its hi sums.
  const auto lo_at = static_cast<size_t>(BucketChannels(a.kernel));
  std::fill(a.buckets,
            a.buckets + (static_cast<size_t>(a.width) + 1) * stride, 0.0);
  // Only the split needs the bound. σ keeps a factor of two to spare, so
  // points up to an eighth past it still sum exactly ((9/8)^4 < 2); past
  // that the sums only round.
  const bool split = kCompensated && channels > 1;
  [[maybe_unused]] const Point bound = SplitBound(a);
  double sigma[kSweepChannelsPadded] = {};
  if (split) SplitScales(a, sigma);
  double v[kSweepChannelsPadded];
  for (size_t i = 0; i < a.n; ++i) {
    const double px = a.ex[i] - a.origin_x;
    const double py = a.ey[i] - a.origin_y;
    SLAM_DCHECK(!split || (std::abs(px) <= 1.125 * bound.x &&
                           std::abs(py) <= 1.125 * bound.y))
        << "point " << i << " at (" << px << ", " << py
        << ") lies past b of the line's pixels";
    SweepChannelValues(px, py, v);
    double* lower = a.buckets + static_cast<size_t>(a.lower_idx[i]) * stride;
    double* upper = a.buckets + static_cast<size_t>(a.upper_idx[i]) * stride;
    for (int ch = 0; ch < channels; ++ch) {
      if (kCompensated && ch != kChCount) {
        const auto lo_ch = lo_at + static_cast<size_t>(ch);
        double hi = 0.0;
        double lo = 0.0;
        SplitExact(sigma[ch], v[ch], hi, lo);
        lower[ch] += hi;
        lower[lo_ch] += lo;
        upper[ch] -= hi;
        upper[lo_ch] -= lo;
      } else {
        lower[ch] += v[ch];
        upper[ch] -= v[ch];
      }
    }
  }
  double run[kSweepChannelsPadded] = {};
  double run_lo[kSweepChannelsPadded] = {};
  double d[kSweepChannelsPadded] = {};
  for (int ix = 0; ix < a.width; ++ix) {
    const double* bucket = a.buckets + static_cast<size_t>(ix) * stride;
    for (int ch = 0; ch < channels; ++ch) {
      run[ch] += bucket[ch];
      if (kCompensated && ch != kChCount) {
        run_lo[ch] += bucket[lo_at + static_cast<size_t>(ch)];
        d[ch] = run[ch] + run_lo[ch];
      } else {
        d[ch] = run[ch];
      }
    }
    a.out[ix] =
        DensityFromAggregates(a.kernel, Point{a.qx[ix], a.qy},
                              AggregatesFromLanes(d), a.bandwidth, a.weight);
  }
}

inline void BucketSweepScalar(const BucketSweepArgs& a) {
  if (a.compensated) {
    BucketSweepScalarImpl<true>(a);
  } else {
    BucketSweepScalarImpl<false>(a);
  }
}

}  // namespace
}  // namespace slam::simd_internal
