#include "core/slam_sort.h"

#include "core/sweep_rows.h"

namespace slam {

// Historically this file carried Algorithm 1 verbatim: per row, sort the
// interval endpoints with std::sort and merge them against the pixel
// coordinates. The per-pixel runs that merge produced never needed an
// internal order (DESIGN.md §12), so the comparison sort was replaced by
// the pixel-binned counting sort, and the implementation became the
// code SLAM_BUCKET runs too (core/sweep_rows.cc); through the engine,
// the line keeps bucket sums instead. The public method identity (name,
// checkpoint sites, budget tags) is all that remains here; complexity is
// O(Y (n + X)), matching Theorem 2 rather than Theorem 1's
// O(Y (n log n + X)) bound.
Status ComputeSlamSort(const KdvTask& task, const ComputeOptions& options,
                       DensityMap* out) {
  return ComputeDirectSweep(task, options, kSlamSortLabels, out);
}

}  // namespace slam
