// SLAM_SORT (paper Algorithm 1, Section 3.4): per pixel row, order the
// interval endpoints of the envelope points and sweep them together with
// the (already sorted) pixel x-coordinates, maintaining the L/U aggregates.
// Exact. The paper's per-row comparison sort gives O(Y (n log n + X))
// (Theorem 1). Here a line needs only each pixel bucket's sum (DESIGN.md
// §12), so the method shares SLAM_BUCKET's line loops (core/sweep_rows.h) at
// O(n + X) per row: through ComputeKdv, bucket sums that order no
// endpoint; called directly, the pixel-binned counting sort and the run
// sweep.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeSlamSort(const KdvTask& task, const ComputeOptions& options,
                       DensityMap* out);

}  // namespace slam
