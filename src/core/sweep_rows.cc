#include "core/sweep_rows.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/envelope.h"
#include "core/sweep_arena.h"
#include "core/sweep_state.h"
#include "simd/sweep_ops.h"
#include "util/narrow.h"
#include "util/units.h"

namespace slam {

namespace {

/// Stores a block of `count` swept lines down columns first, first + 1, …
/// of `*map`. Line c of the block is block[c × H, (c + 1) × H), H the
/// raster's height. The block goes one raster row at a time, so each row
/// takes `count` contiguous pixels instead of one pixel per line a whole
/// row apart.
void StoreColumns(std::span<const double> block, size_t count, PixelX first,
                  DensityMap* map) {
  const size_t height = CheckedSize(map->height());
  const size_t column = CheckedSize(first.value());
  for (RowIndex iy(0); iy < RowIndex(map->height()); ++iy) {
    TypedLane<DensityValue> row = map->mutable_density_row(iy);
    const size_t r = CheckedSize(iy.value());
    for (size_t c = 0; c < count; ++c) {
      row.Store(column + c, DensityValue(block[c * height + r]));
    }
  }
}

/// Brings the compute's charge to the arena's heap. On a refusal the
/// excess may be capacity an earlier, larger compute on this thread left
/// in the arena, so that is dropped and the charge retried before the
/// refusal stands; a standing refusal frees everything, because the arena
/// outlives this compute and must not stay too big for the thread's next
/// (possibly smaller) task.
Status ChargeArena(SweepArena* ws, ScopedMemoryCharge* charge) {
  if (charge->Update(ws->HeapBytes()).ok()) return Status::OK();
  ws->ShrinkToFit();
  Status charged = charge->Update(ws->HeapBytes());
  if (!charged.ok()) ws->Release();
  return charged;
}

}  // namespace

Status ComputeEndpointSweep(const KdvTask& task, SweptLanes points,
                            const ComputeOptions& options,
                            const SweepMethodLabels& labels, SweptLines lines,
                            RowRange rows, size_t widest, DensityMap* out) {
  SLAM_ASSIGN_OR_RETURN(const SimdOps* ops, GetSimdOps(options.simd));
  const bool columns = lines == SweptLines::kColumns;
  const ExecContext* exec = options.exec;
  ScopedMemoryCharge charge(exec, labels.workspace);
  const GridAxis& xs = task.grid.x_axis();
  const size_t length = CheckedSize(xs.count);
  // A column sweep writes up to kColumnBlockLines lines into the line lane
  // and then stores them together; a block never spans two stripes.
  const size_t block = columns ? std::min(CheckedSize(kColumnBlockLines),
                                          CheckedSize(rows.end - rows.begin))
                               : 0;
  // Every lane is sized and charged before the first line; no line
  // resizes one.
  ScopedArena ws;
  ws->PrepareCompute(widest, xs, task.kernel);
  ws->line.resize(block * length);
  SLAM_RETURN_NOT_OK(ChargeArena(&*ws, &charge));

  BucketSweepArgs args;
  args.kernel = task.kernel;
  args.compensated = options.compensated_aggregates;
  args.width = xs.count;
  args.bandwidth = task.bandwidth;
  args.weight = task.weight;
  args.qy = 0.0;  // the row-local frame pins the query y to the line
  args.qx = ws->qx.data();
  args.lower_idx = ws->lower_idx.data();
  args.upper_idx = ws->upper_idx.data();
  args.buckets = ws->buckets.data();
  // The points are in reach order (the engine's swept copy, OrderByReach),
  // so each line's envelope is a run of both lanes: the points the scan
  // would admit. The passes read the run where it lies.
  SortedEnvelopeCursor cursor(points.y);
  for (RowIndex iy(rows.begin); iy < RowIndex(rows.end); ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(exec, labels.row));
    const WorldY k = task.grid.YCoord(iy);
    const LaneRange envelope = cursor.Advance(k, task.bandwidth);
    const size_t m = envelope.size();
    SLAM_DCHECK(m <= widest) << "an envelope wider than the lanes";
    const double* ex = points.x.raw() + envelope.begin;
    const double* ey = points.y.raw() + envelope.begin;
    ops->bound_intervals(ex, ey, m, k.value(), task.bandwidth, ws->lb.data(),
                         ws->ub.data());
    ops->bucket_indices(ws->lb.data(), ws->ub.data(), m, xs,
                        ws->lower_idx.data(), ws->upper_idx.data());
    const Point origin = RowLocalOrigin(xs, k);
    args.n = m;
    args.ex = ex;
    args.ey = ey;
    args.origin_x = origin.x;
    args.origin_y = origin.y;
    // A row goes straight into the raster, a column into its block's slot.
    const size_t slot =
        columns ? CheckedSize(iy.value() - rows.begin) % block : 0;
    args.out = columns ? ws->line.data() + slot * length
                       : out->mutable_density_row(iy).raw();
    ops->bucket_sweep(args);
    if (columns && (slot + 1 == block || iy.value() + 1 == rows.end)) {
      StoreColumns(ws->line, slot + 1,
                   PixelX(iy.value() - PixelIndex(slot)), out);
    }
  }
  return Status::OK();
}

Status ComputeDirectSweep(const KdvTask& task, const ComputeOptions& options,
                          const SweepMethodLabels& labels, DensityMap* out) {
  SLAM_RETURN_NOT_OK(ValidateTask(task));
  SLAM_RETURN_NOT_OK(CheckKernelSupportedBySlam(task.kernel));
  if (task.points.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    // The per-pixel run offsets and scatter cursors count endpoints in
    // int32_t (the SIMD run representation, simd/sweep_ops.h); beyond
    // 2^31 - 1 points per row they would wrap.
    return Status::InvalidArgument(std::string(labels.method) +
                                   " supports at most 2^31 - 1 points");
  }
  SLAM_ASSIGN_OR_RETURN(const SimdOps* ops, GetSimdOps(options.simd));
  SLAM_ASSIGN_OR_RETURN(DensityMap map, DensityMap::Create(task.grid.width(),
                                                           task.grid.height()));
  const ExecContext* exec = options.exec;
  ScopedMemoryCharge charge(exec, labels.workspace);
  const GridAxis& xs = task.grid.x_axis();
  // Lemma 1's scan writes each row's survivors through a raw cursor into
  // envelope lanes sized to all n points (SimdOps::envelope_filter).
  ScopedArena ws;
  ws->PrepareCompute(task.points.size(), xs);
  for (RowIndex iy(0); iy < RowIndex(task.grid.height()); ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(exec, labels.row));
    const WorldY k = task.grid.YCoord(iy);
    const Point origin = RowLocalOrigin(xs, k);
    const size_t m = ops->envelope_filter(task.points, k.value(),
                                          task.bandwidth, ws->ex.data(),
                                          ws->ey.data());
    ws->PrepareRow(m);
    ops->bound_intervals(ws->ex.data(), ws->ey.data(), m, k.value(),
                         task.bandwidth, ws->lb.data(), ws->ub.data());
    ops->bucket_indices(ws->lb.data(), ws->ub.data(), m, xs,
                        ws->lower_idx.data(), ws->upper_idx.data());

    HistogramScatterArgs hs;
    hs.n = m;
    hs.num_pixels = xs.count;
    hs.lower_idx = ws->lower_idx.data();
    hs.upper_idx = ws->upper_idx.data();
    hs.ex = ws->ex.data();
    hs.ey = ws->ey.data();
    hs.origin_x = origin.x;
    hs.origin_y = origin.y;
    hs.lower_offsets = ws->lower_offsets.data();
    hs.upper_offsets = ws->upper_offsets.data();
    hs.lower_cursor = ws->lower_cursor.data();
    hs.upper_cursor = ws->upper_cursor.data();
    hs.lower_px = ws->lower_px.data();
    hs.lower_py = ws->lower_py.data();
    hs.upper_px = ws->upper_px.data();
    hs.upper_py = ws->upper_py.data();
    ops->histogram_scatter(hs);

    SLAM_RETURN_NOT_OK(ChargeArena(&*ws, &charge));

    RowSweepArgs args;
    args.kernel = task.kernel;
    args.compensated = options.compensated_aggregates;
    args.width = xs.count;
    args.bandwidth = task.bandwidth;
    args.weight = task.weight;
    args.qy = 0.0;  // the row-local frame pins the query y to the row
    args.qx = ws->qx.data();
    args.lower = {ws->lower_offsets.data(), ws->lower_px.data(),
                  ws->lower_py.data()};
    args.upper = {ws->upper_offsets.data(), ws->upper_px.data(),
                  ws->upper_py.data()};
    args.out = map.mutable_density_row(iy).raw();
    ops->row_sweep(args, &ws->scratch);
  }
  *out = std::move(map);
  return Status::OK();
}

}  // namespace slam
