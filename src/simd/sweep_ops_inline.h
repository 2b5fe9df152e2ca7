// Internal to src/simd/: the scalar reference implementations of the line
// passes, shared between the scalar backend (which uses them whole) and
// the vector backends (which use them for remainder tails and rare slow
// paths). Header-only so each backend translation unit compiles them with
// its own (contraction-free) flag set.
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
#include <vector>

#include "core/slam_bucket.h"
#include "core/sweep_state.h"
#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/sweep_ops.h"

namespace slam::simd_internal {

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

// The reference counting sort (sweep_ops.h pass 4) in three passes, all
// exact integer/translation work: histogram the bucket indices (shifted by
// one for the exclusive scan), prefix-sum into the run offsets, then
// scatter the endpoint coordinates — translated into the row-local frame —
// through per-bucket cursors. The scatter preserves input order within a
// bucket (stable), which is all the run-order-irrelevance invariant
// (DESIGN.md §12) asks. Split into pieces so the vector backends can reuse
// the count/scatter passes around their own prefix sums.

/// Pass 1: zero both histograms and count each endpoint into the bin one
/// past its bucket (exclusive-scan shift).
inline void HistogramCountScalar(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
  std::fill(a.lower_offsets, a.lower_offsets + bins, 0);
  std::fill(a.upper_offsets, a.upper_offsets + bins, 0);
  for (size_t i = 0; i < a.n; ++i) {
    // Through size_t: the bucket can legitimately be X itself, and X + 1
    // in `int` is UB at X = INT_MAX.
    ++a.lower_offsets[static_cast<size_t>(a.lower_idx[i]) + 1];
    ++a.upper_offsets[static_cast<size_t>(a.upper_idx[i]) + 1];
  }
}

/// Pass 2: in-place inclusive prefix sum over one histogram.
inline void HistogramPrefixSumScalar(int32_t* offsets, size_t bins) {
  for (size_t b = 1; b < bins; ++b) offsets[b] += offsets[b - 1];
}

/// Pass 3: scatter through per-bucket cursors seeded from the offsets.
inline void HistogramScatterEndpointsScalar(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
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

inline void HistogramScatterScalar(const HistogramScatterArgs& a) {
  const size_t bins = static_cast<size_t>(a.num_pixels) + 2;
  HistogramCountScalar(a);
  HistogramPrefixSumScalar(a.lower_offsets, bins);
  HistogramPrefixSumScalar(a.upper_offsets, bins);
  HistogramScatterEndpointsScalar(a);
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

/// The reference bucket pass (BucketSweepArgs): per channel, one
/// NeumaierAdd per endpoint — each point's lower endpoint, then its upper,
/// points in slice order — then one running Neumaier sum over the pixel
/// buckets that folds in each bucket's compensation term, evaluated at each
/// pixel. The count channel adds plainly at both levels, as in
/// SoaAccumulator::Add: its sums are exact integers, so its compensation
/// terms stay +0. The uncompensated form adds plainly everywhere.
template <bool kCompensated>
void BucketSweepScalarImpl(const BucketSweepArgs& a) {
  const int channels = SweepChannels(a.kernel);
  const size_t stride = BucketStride(a.kernel);
  // A bucket's compensation terms follow its sums.
  const auto comp = static_cast<size_t>(BucketChannels(a.kernel));
  std::fill(a.buckets,
            a.buckets + (static_cast<size_t>(a.width) + 1) * stride, 0.0);
  const auto add = [&](double* bucket, double value, int ch) {
    if (kCompensated && ch != kChCount) {
      NeumaierAdd(bucket[ch], bucket[comp + static_cast<size_t>(ch)], value);
    } else {
      bucket[ch] += value;
    }
  };
  double v[kSweepChannelsPadded];
  for (size_t i = 0; i < a.n; ++i) {
    SweepChannelValues(a.ex[i] - a.origin_x, a.ey[i] - a.origin_y, v);
    double* lower = a.buckets + static_cast<size_t>(a.lower_idx[i]) * stride;
    double* upper = a.buckets + static_cast<size_t>(a.upper_idx[i]) * stride;
    for (int ch = 0; ch < channels; ++ch) add(lower, v[ch], ch);
    for (int ch = 0; ch < channels; ++ch) add(upper, -v[ch], ch);
  }
  double run[kSweepChannelsPadded] = {};
  double run_comp[kSweepChannelsPadded] = {};
  double d[kSweepChannelsPadded] = {};
  for (int ix = 0; ix < a.width; ++ix) {
    const double* bucket = a.buckets + static_cast<size_t>(ix) * stride;
    for (int ch = 0; ch < channels; ++ch) {
      if (kCompensated && ch != kChCount) {
        NeumaierAdd(run[ch], run_comp[ch], bucket[ch]);
        run_comp[ch] += bucket[comp + static_cast<size_t>(ch)];
        d[ch] = run[ch] + run_comp[ch];
      } else {
        run[ch] += bucket[ch];
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

}  // namespace slam::simd_internal
