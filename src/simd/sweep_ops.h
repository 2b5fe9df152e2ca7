// The per-line sweep primitives behind the four SLAM methods, as a table
// of function pointers selected once per compute call (dispatch.h).
//
// The engine's path (ComputeEndpointSweep, core/sweep_rows.h) slices each
// line's envelope out of a y-sorted copy and runs three passes on it:
//   - bound_intervals — per envelope point, the sweep interval
//     [p.x − √(b² − dy²), p.x + √(b² − dy²)] (paper Eqs. 8–9) into
//     contiguous lb[]/ub[] lanes.
//   - bucket_indices — per interval endpoint, the pixel bucket it lands in
//     (paper Eqs. 19–20).
//   - bucket_sweep — Algorithm 2 on bucket sums: add each point's channel
//     vector v(p) to its lower bucket and subtract it from its upper one,
//     run one compensated sum over the buckets, and evaluate the kernel's
//     closed-form polynomial at each pixel. Only each bucket's sum
//     matters, so no endpoint is ever put in order.
//
// The direct ComputeSlamSort / ComputeSlamBucket entry (ComputeDirectSweep)
// keeps Lemma 1's scan and the counting sort, five passes per row:
//   1. envelope_filter — E(k) membership test over all points, emitting the
//      survivors as SoA coordinate lanes (x[], y[]).
//   2. bound_intervals, 3. bucket_indices — as above.
//   4. histogram_scatter — the pixel-binned counting sort: per-bucket
//      histograms of the endpoint bins, prefix-summed into per-pixel run
//      offsets, and the endpoint coordinates scattered (stably, in input
//      order) into row-local SoA lanes.
//   5. row_sweep — fold each pixel's endpoint runs into the L/U SoA
//      accumulators (core/sweep_state.h) and evaluate the polynomial.
// Per-pixel runs need no internal order (DESIGN.md §12), so the counting
// sort gives the run sets SLAM_SORT's sort-then-merge gave, in O(m + X).
//
// The scalar backend is the reference: it mirrors the sweep arithmetic of
// core/sweep_state.h operation for operation. Vector backends replay the
// identical operation sequence in lanes — no FMA contraction, Knuth
// two-sum in place of the branched Neumaier step (both produce the exact
// rounding error of the addition, so they are interchangeable bit for
// bit) — and are held to the scalar path and the long-double oracle at
// 1e-9 by tests/simd/simd_equivalence_test.cc,
// tests/simd/bucket_sweep_test.cc and fuzz/target_differential.cc.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sweep_state.h"
#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/dispatch.h"
#include "util/result.h"

namespace slam {

/// One side's endpoint runs for a row sweep, in SoA row-local coordinates.
/// Run i = [offsets[i], offsets[i + 1]) is applied before pixel i is
/// evaluated; `offsets` therefore has at least width + 1 entries and is
/// non-decreasing. Endpoints at or beyond offsets[width] are never applied
/// (SLAM_BUCKET parks beyond-the-last-pixel endpoints there).
struct EndpointRuns {
  const int32_t* offsets = nullptr;
  const double* px = nullptr;
  const double* py = nullptr;
};

/// Inputs of one row sweep. All coordinates are row-local (see
/// RowLocalOrigin): px/py/qx are pre-translated, and the query y is qy for
/// every pixel of the row (0.0 from the sweep methods; kept symbolic so
/// the backends stay testable on arbitrary frames).
struct RowSweepArgs {
  KernelType kernel = KernelType::kEpanechnikov;
  bool compensated = true;
  int width = 0;
  double bandwidth = 1.0;
  double weight = 1.0;
  double qy = 0.0;
  const double* qx = nullptr;  // length `width`
  EndpointRuns lower;
  EndpointRuns upper;
  double* out = nullptr;  // densities, length `width`
};

/// Inputs/outputs of the pixel-binned counting sort (pass 4). All pointers
/// are caller-sized: `n` endpoints per side with bucket indices in [0,
/// num_pixels] (bucket_indices' clamped range), offsets num_pixels + 2
/// entries, cursors num_pixels + 1, coordinate lanes n each. On return,
/// offsets[0] == 0, offsets is non-decreasing, offsets[num_pixels + 1] ==
/// n, and run i = [offsets[i], offsets[i + 1]) holds the endpoints with
/// bucket i in input order (stable) as row-local coordinates (global minus
/// origin). Bucket num_pixels is the park run the row sweep never applies.
struct HistogramScatterArgs {
  size_t n = 0;
  int num_pixels = 0;
  const int32_t* lower_idx = nullptr;
  const int32_t* upper_idx = nullptr;
  const double* ex = nullptr;  // global endpoint coordinates
  const double* ey = nullptr;
  double origin_x = 0.0;  // row-local frame origin (RowLocalOrigin)
  double origin_y = 0.0;
  int32_t* lower_offsets = nullptr;
  int32_t* upper_offsets = nullptr;
  int32_t* lower_cursor = nullptr;  // scratch for the scatter pass
  int32_t* upper_cursor = nullptr;
  double* lower_px = nullptr;
  double* lower_py = nullptr;
  double* upper_px = nullptr;
  double* upper_py = nullptr;
};

/// Channels of one bucket_sweep bucket: SweepChannels(kernel) rounded up to
/// whole 4-double registers, except uniform's single exact count.
inline int BucketChannels(KernelType kernel) {
  const int channels = SweepChannels(kernel);
  return channels <= 1 ? channels : (channels + 3) / 4 * 4;
}

/// Doubles per bucket: BucketChannels sums, then as many compensation
/// terms — 2 (uniform), 8 (Epanechnikov: one 64-byte line), 24 (quartic).
inline size_t BucketStride(KernelType kernel) {
  return 2 * static_cast<size_t>(BucketChannels(kernel));
}

/// Inputs of the engine's bucket pass, which replaces histogram_scatter +
/// row_sweep on the engine path. Bucket b of `buckets` sits at
/// buckets + b × BucketStride(kernel); buckets 0..width − 1 are the pixel
/// gaps of Eqs. 19–20 and bucket `width` parks the endpoints past the last
/// pixel. Every backend zeroes the width + 1 buckets, adds v(p)
/// (SweepChannelValues, row-local: p − origin) to bucket lower_idx[i] and
/// subtracts it from bucket upper_idx[i] for i in [0, n) in order, lower
/// first, then sums buckets 0..width − 1 left to right and evaluates pixel
/// i on the running sum. With `compensated`, both levels — each bucket's
/// sum and the running sum — are Neumaier sums, and the running sum folds
/// each bucket's compensation term into its own.
struct BucketSweepArgs {
  KernelType kernel = KernelType::kEpanechnikov;
  bool compensated = true;
  int width = 0;
  double bandwidth = 1.0;
  double weight = 1.0;
  double qy = 0.0;
  const double* qx = nullptr;  // row-local, length `width`
  size_t n = 0;                // envelope points
  const double* ex = nullptr;  // global coordinates, length n
  const double* ey = nullptr;
  double origin_x = 0.0;  // row-local frame origin (RowLocalOrigin)
  double origin_y = 0.0;
  const int32_t* lower_idx = nullptr;  // buckets in [0, width], length n
  const int32_t* upper_idx = nullptr;
  double* buckets = nullptr;  // (width + 1) × BucketStride, 32-byte aligned
  double* out = nullptr;      // densities, length `width`
};

/// Reusable scratch for the two-pass vector backends (pass 1 snapshots the
/// per-pixel aggregate differences into interleaved lanes, pass 2 evaluates
/// the polynomial across pixels). The scalar backend never touches it.
struct RowSweepScratch {
  std::vector<double> lanes;

  /// Heap held, accounted against the memory budget by the sweep methods.
  size_t HeapBytes() const { return lanes.capacity() * sizeof(double); }
};

/// One backend's implementations of the line passes. The function pointers
/// are never null in a table returned by GetSimdOps.
struct SimdOps {
  SimdLevel level = SimdLevel::kScalar;

  /// Writes the points of E(k) = {p : |k − p.y| <= bandwidth} into the SoA
  /// lanes ex/ey in input order and returns the survivor count. The caller
  /// sizes both lanes to points.size(): the vector backends compress whole
  /// registers to the output cursor, so up to one full vector width beyond
  /// the survivor count is scribbled (never past points.size()). A
  /// per-survivor `push_back` here was the single hottest instruction path
  /// of SLAM_BUCKET — the capacity check serializes an otherwise
  /// data-parallel scan over all n points every row.
  size_t (*envelope_filter)(std::span<const Point> points, double k,
                            double bandwidth, double* ex,
                            double* ey) = nullptr;

  /// lb[i] = ex[i] − √(max(b² − (k − ey[i])², 0)), ub[i] = ex[i] + √(...).
  void (*bound_intervals)(const double* ex, const double* ey, size_t n,
                          double k, double bandwidth, double* lb,
                          double* ub) = nullptr;

  /// lower_bucket[i] = LowerBucket(lb[i], xs), upper_bucket[i] =
  /// UpperBucket(ub[i], xs) (core/slam_bucket.h, Eqs. 19–20).
  void (*bucket_indices)(const double* lb, const double* ub, size_t n,
                         const GridAxis& xs, int32_t* lower_bucket,
                         int32_t* upper_bucket) = nullptr;

  /// The pixel-binned counting sort; see HistogramScatterArgs. Integer-only
  /// control flow plus an exact coordinate translation, so every backend
  /// produces bit-identical output (the vector backends vectorize the
  /// X-length prefix-sum pass; the count and scatter passes stay scalar —
  /// scattered increments have no conflict-free vector form before
  /// AVX-512 CD, and both passes are memory-bound anyway).
  void (*histogram_scatter)(const HistogramScatterArgs& args) = nullptr;

  /// The row sweep proper; see RowSweepArgs.
  void (*row_sweep)(const RowSweepArgs& args,
                    RowSweepScratch* scratch) = nullptr;

  /// The engine's bucket sums and pixel evaluation; see BucketSweepArgs.
  void (*bucket_sweep)(const BucketSweepArgs& args) = nullptr;
};

/// Backend tables. The vector getters return nullptr when the backend is
/// not compiled into this binary (arch-gated translation units); they do
/// NOT check CPU features — that is SimdLevelAvailable's job.
const SimdOps* GetScalarOps();
const SimdOps* GetAvx2Ops();
const SimdOps* GetNeonOps();

/// Resolves `level` (kAuto → best available) and returns its ops table;
/// InvalidArgument when a pinned level cannot run on this build/CPU.
Result<const SimdOps*> GetSimdOps(SimdLevel level);

}  // namespace slam
