#include "baselines/quad.h"

#include "index/quadtree.h"

namespace slam {

Status ComputeQuad(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out) {
  if (options.quad_epsilon < 0.0) {
    return Status::InvalidArgument("quad_epsilon must be non-negative");
  }
  QuadTreeOptions quad_options;
  quad_options.exec = options.exec;
  SLAM_ASSIGN_OR_RETURN(QuadTree index,
                        QuadTree::Build(task.points, quad_options));
  ScopedMemoryCharge charge(options.exec, "quad/index");
  SLAM_RETURN_NOT_OK(charge.Update(index.MemoryUsageBytes()));
  // Exact mode decomposes the density over R(q) aggregates (possible for
  // the polynomial kernels); the epsilon mode and the Gaussian kernel go
  // through the bound-midpoint traversal.
  const bool exact_via_aggregates =
      options.quad_epsilon == 0.0 && KernelSupportedBySlam(task.kernel);
  for (int iy = rows.begin; iy < rows.end; ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(options.exec, "quad/row"));
    std::span<double> row = out->mutable_row(iy);
    for (int ix = 0; ix < task.grid.width(); ++ix) {
      const Point q = task.grid.PixelCenter(ix, iy);
      if (exact_via_aggregates) {
        // The aggregates come back in the query-centered frame (every
        // magnitude bandwidth-scaled, regardless of where the map sits
        // globally), so the density is evaluated at the frame's origin.
        const RangeAggregates agg =
            index.RangeAggregateQuery(q, task.bandwidth);
        row[ix] = DensityFromAggregates(task.kernel, Point{0.0, 0.0}, agg,
                                        task.bandwidth, task.weight);
      } else {
        row[ix] = task.weight *
                  index.AccumulateKernelBounded(q, task.kernel,
                                                task.bandwidth,
                                                options.quad_epsilon);
      }
    }
  }
  return Status::OK();
}

}  // namespace slam
