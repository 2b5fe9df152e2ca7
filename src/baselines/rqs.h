// RQS: the range-query-based solution (paper Section 2.2). For every pixel
// q, retrieve R(q) = {p : dist(q, p) <= b} from a spatial index and
// accumulate w·K(q, p) over it. Exact; worst-case O(XYn) despite the index.
// Two index variants, as in the paper's Table 6: kd-tree and ball-tree.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeRqsKd(const KdvTask& task, const ComputeOptions& options,
                    RowRange rows, DensityMap* out);

Status ComputeRqsBall(const KdvTask& task, const ComputeOptions& options,
                      RowRange rows, DensityMap* out);

}  // namespace slam
