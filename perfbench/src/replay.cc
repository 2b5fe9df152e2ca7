#include "replay.h"

#include <algorithm>
#include <cstring>

#include "core/sweep_state.h"
#include "simd/sweep_ops.h"
#include "trace.h"
#include "util/units.h"

namespace perfbench {

const std::array<const char*, kPassCount> kPassNames = {
    "envelope_filter", "bound_intervals", "bucket_indices",
    "histogram_scatter", "row_sweep"};

slam::Result<ReplayStats> ReplaySweep(const slam::KdvTask& task,
                                      const slam::ComputeOptions& options,
                                      slam::SweepArena* arena,
                                      slam::DensityMap* out) {
  using slam::RowIndex;
  using slam::WorldY;
  SLAM_RETURN_NOT_OK(slam::ValidateTask(task));
  SLAM_ASSIGN_OR_RETURN(const slam::SimdOps* ops,
                        slam::GetSimdOps(options.simd));
  SLAM_ASSIGN_OR_RETURN(slam::DensityMap map,
                        slam::DensityMap::Create(task.grid.width(),
                                                 task.grid.height()));
  const slam::GridAxis& xs = task.grid.x_axis();
  slam::SweepArena& ws = *arena;
  ws.PrepareCompute(task.points.size(), xs);

  ReplayStats stats;
  std::array<Clock::duration, kPassCount> spent = {};
  const RowIndex rows(task.grid.height());
  for (RowIndex iy(0); iy < rows; ++iy) {
    const WorldY k = task.grid.YCoord(iy);
    const slam::Point origin = slam::RowLocalOrigin(xs, k);
    Clock::time_point t0 = Clock::now();
    const size_t m = ops->envelope_filter(task.points, k.value(),
                                          task.bandwidth, ws.ex.data(),
                                          ws.ey.data());
    Clock::time_point t1 = Clock::now();
    spent[kEnvelopeFilter] += t1 - t0;
    ws.PrepareRow(m);

    t0 = Clock::now();
    ops->bound_intervals(ws.ex.data(), ws.ey.data(), m, k.value(),
                         task.bandwidth, ws.lb.data(), ws.ub.data());
    t1 = Clock::now();
    spent[kBoundIntervals] += t1 - t0;

    t0 = Clock::now();
    ops->bucket_indices(ws.lb.data(), ws.ub.data(), m, xs,
                        ws.lower_idx.data(), ws.upper_idx.data());
    t1 = Clock::now();
    spent[kBucketIndices] += t1 - t0;

    slam::HistogramScatterArgs hs;
    hs.n = m;
    hs.num_pixels = xs.count;
    hs.lower_idx = ws.lower_idx.data();
    hs.upper_idx = ws.upper_idx.data();
    hs.ex = ws.ex.data();
    hs.ey = ws.ey.data();
    hs.origin_x = origin.x;
    hs.origin_y = origin.y;
    hs.lower_offsets = ws.lower_offsets.data();
    hs.upper_offsets = ws.upper_offsets.data();
    hs.lower_cursor = ws.lower_cursor.data();
    hs.upper_cursor = ws.upper_cursor.data();
    hs.lower_px = ws.lower_px.data();
    hs.lower_py = ws.lower_py.data();
    hs.upper_px = ws.upper_px.data();
    hs.upper_py = ws.upper_py.data();
    t0 = Clock::now();
    ops->histogram_scatter(hs);
    t1 = Clock::now();
    spent[kHistogramScatter] += t1 - t0;

    slam::RowSweepArgs args;
    args.kernel = task.kernel;
    args.compensated = options.compensated_aggregates;
    args.width = xs.count;
    args.bandwidth = task.bandwidth;
    args.weight = task.weight;
    args.qy = 0.0;
    args.qx = ws.qx.data();
    args.lower = {ws.lower_offsets.data(), ws.lower_px.data(),
                  ws.lower_py.data()};
    args.upper = {ws.upper_offsets.data(), ws.upper_px.data(),
                  ws.upper_py.data()};
    args.out = map.mutable_density_row(iy).raw();
    t0 = Clock::now();
    ops->row_sweep(args, &ws.scratch);
    t1 = Clock::now();
    spent[kRowSweep] += t1 - t0;

    // Counters, outside the timed passes. The park bucket (index X) holds
    // the endpoints past the last pixel: the park run offsets[X]..offsets[X
    // + 1] of each side.
    const auto count = static_cast<int64_t>(m);
    const size_t park = static_cast<size_t>(xs.count);
    ++stats.lines;
    stats.envelope_points_sum += count;
    stats.envelope_points_max = std::max(stats.envelope_points_max, count);
    stats.endpoints += 2 * count;
    stats.parked_endpoints +=
        (ws.lower_offsets[park + 1] - ws.lower_offsets[park]) +
        (ws.upper_offsets[park + 1] - ws.upper_offsets[park]);
  }
  for (int p = 0; p < kPassCount; ++p) {
    stats.pass_ms[static_cast<size_t>(p)] =
        std::chrono::duration<double, std::milli>(spent[static_cast<size_t>(p)])
            .count();
  }
  *out = std::move(map);
  return stats;
}

bool BitIdentical(const slam::DensityMap& a, const slam::DensityMap& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto va = a.values();
  const auto vb = b.values();
  return std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
