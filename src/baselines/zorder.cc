#include "baselines/zorder.h"

#include <vector>

#include "baselines/rqs.h"
#include "index/zorder_index.h"

namespace slam {

Status ComputeZorder(const KdvTask& task, const ComputeOptions& options,
                     RowRange rows, DensityMap* out) {
  if (!(options.zorder_epsilon > 0.0) || options.zorder_epsilon > 1.0) {
    return Status::InvalidArgument("zorder_epsilon must be in (0, 1]");
  }
  SLAM_RETURN_NOT_OK(ExecCheck(options.exec, "zorder/build"));
  ScopedMemoryCharge charge(options.exec, "zorder/sample");
  std::vector<Point> sample;
  {
    // The Morton-sorted copy lives only long enough to draw the sample, so
    // its charge is returned before the exact KDV on the reduction runs.
    SLAM_ASSIGN_OR_RETURN(ZOrderIndex index,
                          ZOrderIndex::Build(task.points, options.exec));
    SLAM_RETURN_NOT_OK(charge.Update(index.MemoryUsageBytes()));
    const size_t m = index.SampleSizeForEpsilon(options.zorder_epsilon);
    sample = index.StridedSample(m);
  }
  SLAM_RETURN_NOT_OK(charge.Update(sample.capacity() * sizeof(Point)));

  // The reduced dataset approximates the full one once each sampled point
  // is re-weighted to stand for n/m originals.
  KdvTask reduced = task;
  reduced.points = sample;
  if (!sample.empty()) {
    reduced.weight = task.weight * static_cast<double>(task.points.size()) /
                     static_cast<double>(sample.size());
  }
  // "These methods still need to evaluate the exact KDV for the reduced
  // dataset" (paper Section 5) — done here with the kd-tree RQS.
  return ComputeRqsKd(reduced, options, rows, out);
}

}  // namespace slam
