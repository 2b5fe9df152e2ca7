// aKDE baseline (Gray & Moore [33], paper Table 6): single-tree kernel
// summation with per-node lower/upper bounds; a node whose kernel bound gap
// is within epsilon contributes the bound midpoint, otherwise it is
// refined. Approximate (per-point absolute error <= epsilon/2).
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeAkde(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out);

}  // namespace slam
