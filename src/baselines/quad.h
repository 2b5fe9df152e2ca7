// QUAD baseline (Chan, Cheng, Yiu — SIGMOD 2020 [16], paper Table 6):
// quad-tree filter-and-refinement with quadratic bound functions on node
// contributions. With quad_epsilon == 0 (the default) every straddling node
// is refined to its points, so the result is exact; whole nodes inside the
// bandwidth disk contribute via stored aggregates in O(1), and nodes
// outside are pruned. With quad_epsilon > 0 it reproduces QUAD's
// approximate mode.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeQuad(const KdvTask& task, const ComputeOptions& options,
                   RowRange rows, DensityMap* out);

}  // namespace slam
