// The shared row driver behind SLAM_SORT and SLAM_BUCKET (DESIGN.md §12).
// Since the pixel-binned counting sort replaced SLAM_SORT's per-row
// comparison sort, both methods run the identical five dispatched passes
// (simd/sweep_ops.h) per row; only their public names — checkpoint sites,
// budget-charge tags, error messages — differ, so they share one driver
// parameterized on those labels.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

/// The method-identity strings threaded through the shared driver. The
/// fault-injection sites and budget-charge tags are part of each method's
/// observable contract (util/exec_context.h), so unifying the
/// implementations must not unify the labels.
struct SweepMethodLabels {
  const char* method;     // error messages, e.g. "SLAM_SORT"
  const char* workspace;  // budget-charge tag, e.g. "slam_sort/workspace"
  const char* row;        // per-row checkpoint site, e.g. "slam_sort/row"
};

/// Runs the row passes over every row of `task`. Points sorted by y
/// (ascending, by `<`), as ComputeKdv hands them to the SLAM methods, give
/// each row its envelope as a run of the input (SortedEnvelopeCursor);
/// any other order gets pass 1's scan of all points on every row.
Status ComputeEndpointSweep(const KdvTask& task, const ComputeOptions& options,
                            const SweepMethodLabels& labels, DensityMap* out);

}  // namespace slam
