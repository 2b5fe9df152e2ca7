// Z-order sampling baseline (Zheng et al. [73], paper Table 6): sort points
// along the Morton curve, draw an evenly strided sample of size m(eps),
// re-weight it by n/m, and evaluate the reduced dataset exactly. Provides a
// probabilistic error guarantee — i.e. an approximate KDV.
#pragma once

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/status.h"

namespace slam {

Status ComputeZorder(const KdvTask& task, const ComputeOptions& options,
                     RowRange rows, DensityMap* out);

}  // namespace slam
