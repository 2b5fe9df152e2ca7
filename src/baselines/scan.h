// SCAN baseline (paper Table 6): evaluate K(q, p) for every (pixel, point)
// pair directly — the O(XYn) ground truth every other method is validated
// against.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeScan(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out);

}  // namespace slam
