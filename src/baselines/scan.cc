#include "baselines/scan.h"

namespace slam {

Status ComputeScan(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out) {
  const KernelType kernel = task.kernel;
  const double b = task.bandwidth;
  const double w = task.weight;
  for (int iy = rows.begin; iy < rows.end; ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(options.exec, "scan/row"));
    std::span<double> row = out->mutable_row(iy);
    for (int ix = 0; ix < task.grid.width(); ++ix) {
      const Point q = task.grid.PixelCenter(ix, iy);
      double sum = 0.0;
      for (const Point& p : task.points) {
        sum += EvaluateKernel(kernel, SquaredDistance(q, p), b);
      }
      row[ix] = w * sum;
    }
  }
  return Status::OK();
}

}  // namespace slam
