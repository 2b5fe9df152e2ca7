#include "baselines/akde.h"

#include "index/kdtree.h"

namespace slam {

Status ComputeAkde(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out) {
  if (options.akde_epsilon < 0.0) {
    return Status::InvalidArgument("akde_epsilon must be non-negative");
  }
  KdTreeOptions kd_options;
  kd_options.exec = options.exec;
  SLAM_ASSIGN_OR_RETURN(KdTree index, KdTree::Build(task.points, kd_options));
  ScopedMemoryCharge charge(options.exec, "akde/index");
  SLAM_RETURN_NOT_OK(charge.Update(index.MemoryUsageBytes()));
  for (int iy = rows.begin; iy < rows.end; ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(options.exec, "akde/row"));
    std::span<double> row = out->mutable_row(iy);
    for (int ix = 0; ix < task.grid.width(); ++ix) {
      const Point q = task.grid.PixelCenter(ix, iy);
      row[ix] = task.weight *
                index.AccumulateKernelBounded(q, task.kernel, task.bandwidth,
                                              options.akde_epsilon);
    }
  }
  return Status::OK();
}

}  // namespace slam
