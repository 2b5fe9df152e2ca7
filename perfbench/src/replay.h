// Replays the sweep methods' row loop (core/sweep_rows.cc) from outside
// the library, through the public SIMD ops table, timing each of the five
// passes summed over rows (two clock reads per pass per row) and counting
// what each row saw. The replay is only trusted when its raster equals
// ComputeSlamBucket's bit for bit on the same task.
#pragma once

#include <array>
#include <cstdint>

#include "core/sweep_arena.h"
#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/result.h"

namespace perfbench {

enum Pass : int {
  kEnvelopeFilter = 0,
  kBoundIntervals = 1,
  kBucketIndices = 2,
  kHistogramScatter = 3,
  kRowSweep = 4,
  kPassCount = 5,
};

/// Metric-name stems of the passes, in Pass order.
extern const std::array<const char*, kPassCount> kPassNames;

struct ReplayStats {
  std::array<double, kPassCount> pass_ms = {};
  int64_t lines = 0;
  /// Envelope size m summed over lines, and its largest value.
  int64_t envelope_points_sum = 0;
  int64_t envelope_points_max = 0;
  /// Interval endpoints (2 per envelope point) and those parked in the
  /// bucket past the last pixel, which the sweep never applies.
  int64_t endpoints = 0;
  int64_t parked_endpoints = 0;
};

/// Runs the five passes over every row of `task` (already recentered and
/// transposed as the engine would) with `options`' SIMD level and
/// aggregate mode, writing the raster to `*out`. `arena` carries the lanes
/// across calls, as the library's thread arena does.
slam::Result<ReplayStats> ReplaySweep(const slam::KdvTask& task,
                                      const slam::ComputeOptions& options,
                                      slam::SweepArena* arena,
                                      slam::DensityMap* out);

/// True when the two rasters have the same shape and identical bits.
bool BitIdentical(const slam::DensityMap& a, const slam::DensityMap& b);

}  // namespace perfbench
