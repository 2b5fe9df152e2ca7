#include "baselines/rqs.h"

#include "index/balltree.h"
#include "index/kdtree.h"

namespace slam {

namespace {

/// Shared pixel loop: `index` must provide RangeQuery(q, radius, fn) and
/// MemoryUsageBytes(). The index heap is charged against the context's
/// budget for the duration of the loop.
template <typename Index>
Status RqsLoop(const Index& index, const KdvTask& task,
               const ComputeOptions& options, RowRange rows, DensityMap* out) {
  ScopedMemoryCharge charge(options.exec, "rqs/index");
  SLAM_RETURN_NOT_OK(charge.Update(index.MemoryUsageBytes()));
  const KernelType kernel = task.kernel;
  const double b = task.bandwidth;
  const double w = task.weight;
  for (int iy = rows.begin; iy < rows.end; ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(options.exec, "rqs/row"));
    std::span<double> row = out->mutable_row(iy);
    for (int ix = 0; ix < task.grid.width(); ++ix) {
      const Point q = task.grid.PixelCenter(ix, iy);
      double sum = 0.0;
      index.RangeQuery(q, b, [&](const Point& p) {
        sum += EvaluateKernel(kernel, SquaredDistance(q, p), b);
      });
      row[ix] = w * sum;
    }
  }
  return Status::OK();
}

}  // namespace

Status ComputeRqsKd(const KdvTask& task, const ComputeOptions& options,
                    RowRange rows, DensityMap* out) {
  KdTreeOptions kd_options;
  kd_options.exec = options.exec;
  SLAM_ASSIGN_OR_RETURN(KdTree index, KdTree::Build(task.points, kd_options));
  return RqsLoop(index, task, options, rows, out);
}

Status ComputeRqsBall(const KdvTask& task, const ComputeOptions& options,
                      RowRange rows, DensityMap* out) {
  BallTreeOptions ball_options;
  ball_options.exec = options.exec;
  SLAM_ASSIGN_OR_RETURN(BallTree index,
                        BallTree::Build(task.points, ball_options));
  return RqsLoop(index, task, options, rows, out);
}

}  // namespace slam
