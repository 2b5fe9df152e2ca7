#include "core/slam_bucket.h"

#include "core/sweep_rows.h"

namespace slam {

// The bucket workspace that used to live here moved behind the dispatched
// ops (simd/sweep_ops.h) and the shared line loops in core/sweep_rows.cc,
// which SLAM_SORT runs too — see DESIGN.md §12: through the engine each
// bucket holds a sum (bucket_sweep), and a direct call keeps the counting
// sort (histogram_scatter). The LowerBucket/UpperBucket formulas stay in
// the header: the SIMD bucket_indices backends inline them, and the
// boundary regression tests pin their clamps.
Status ComputeSlamBucket(const KdvTask& task, const ComputeOptions& options,
                         DensityMap* out) {
  return ComputeDirectSweep(task, options, kSlamBucketLabels, out);
}

}  // namespace slam
