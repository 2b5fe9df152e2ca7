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

/// Copies an AoS envelope span (a run of the y-sorted points) into the SoA
/// lanes. The lanes are typed at this boundary (TypedLane, util/units.h):
/// the compiler rejects scattering a y coordinate into the x lane; only the
/// dispatched backends below ever see the raw doubles.
void SoaFromSpan(std::span<const Point> envelope, TypedLane<WorldX> ex,
                 TypedLane<WorldY> ey) {
  for (size_t i = 0; i < envelope.size(); ++i) {
    ex.Store(i, WorldX(envelope[i].x));
    ey.Store(i, WorldY(envelope[i].y));
  }
}

/// The largest envelope any line of `rows` sees, from one dry walk of the
/// cursor (O(n + lines) comparisons): sizing every lane to it up front
/// means no line resizes, and a fresh arena holds exactly that much.
size_t WidestEnvelope(const KdvTask& task, RowRange rows) {
  SortedEnvelopeCursor cursor(task.points);
  size_t widest = 0;
  for (RowIndex iy(rows.begin); iy < RowIndex(rows.end); ++iy) {
    widest = std::max(
        widest, cursor.Advance(task.grid.YCoord(iy), task.bandwidth).size());
  }
  return widest;
}

/// Stores a swept line down column `ix` of `*map`, one value per row.
void StoreColumn(std::span<const double> line, PixelX ix, DensityMap* map) {
  for (RowIndex iy(0); iy < RowIndex(map->height()); ++iy) {
    map->set(ix, iy, DensityValue(line[CheckedSize(iy.value())]));
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

Status ComputeEndpointSweep(const KdvTask& task, const ComputeOptions& options,
                            const SweepMethodLabels& labels, SweptLines lines,
                            RowRange rows, DensityMap* out) {
  SLAM_ASSIGN_OR_RETURN(const SimdOps* ops, GetSimdOps(options.simd));
  const bool columns = lines == SweptLines::kColumns;
  const ExecContext* exec = options.exec;
  ScopedMemoryCharge charge(exec, labels.workspace);
  const GridAxis& xs = task.grid.x_axis();
  // Every lane is sized and charged before the first line; no line
  // resizes one.
  ScopedArena ws;
  ws->PrepareCompute(WidestEnvelope(task, rows), xs, task.kernel);
  ws->line.resize(columns ? CheckedSize(xs.count) : 0);
  SLAM_RETURN_NOT_OK(ChargeArena(&*ws, &charge));

  BucketSweepArgs args;
  args.kernel = task.kernel;
  args.compensated = options.compensated_aggregates;
  args.width = xs.count;
  args.bandwidth = task.bandwidth;
  args.weight = task.weight;
  args.qy = 0.0;  // the row-local frame pins the query y to the line
  args.qx = ws->qx.data();
  args.ex = ws->ex.data();
  args.ey = ws->ey.data();
  args.lower_idx = ws->lower_idx.data();
  args.upper_idx = ws->upper_idx.data();
  args.buckets = ws->buckets.data();
  // The points are sorted by y (the engine's swept copy, kdv/engine.cc), so
  // each line's envelope is a run of them: the points the scan would emit,
  // in the order it would emit them.
  SortedEnvelopeCursor cursor(task.points);
  for (RowIndex iy(rows.begin); iy < RowIndex(rows.end); ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(exec, labels.row));
    const WorldY k = task.grid.YCoord(iy);
    const std::span<const Point> envelope = cursor.Advance(k, task.bandwidth);
    const size_t m = envelope.size();
    SoaFromSpan(envelope, TypedLane<WorldX>(ws->ex.data(), m),
                TypedLane<WorldY>(ws->ey.data(), m));
    ops->bound_intervals(ws->ex.data(), ws->ey.data(), m, k.value(),
                         task.bandwidth, ws->lb.data(), ws->ub.data());
    ops->bucket_indices(ws->lb.data(), ws->ub.data(), m, xs,
                        ws->lower_idx.data(), ws->upper_idx.data());
    const Point origin = RowLocalOrigin(xs, k);
    args.n = m;
    args.origin_x = origin.x;
    args.origin_y = origin.y;
    args.out = columns ? ws->line.data() : out->mutable_density_row(iy).raw();
    ops->bucket_sweep(args);
    if (columns) StoreColumn(ws->line, PixelX(iy.value()), out);
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
