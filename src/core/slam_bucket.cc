#include "core/slam_bucket.h"

#include "core/sweep_rows.h"

namespace slam {

// The bucket workspace and scalar counting sort that used to live here
// moved behind the dispatched histogram_scatter op (simd/sweep_ops.h) and
// the shared driver in core/sweep_rows.cc, which SLAM_SORT now runs too —
// see DESIGN.md §12. The LowerBucket/UpperBucket formulas stay in the
// header: the SIMD bucket_indices backends inline them, and the boundary
// regression tests pin their clamps.
Status ComputeSlamBucket(const KdvTask& task, const ComputeOptions& options,
                         DensityMap* out) {
  return ComputeDirectSweep(task, options, kSlamBucketLabels, out);
}

}  // namespace slam
