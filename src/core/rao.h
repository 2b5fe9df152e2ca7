// Resolution-Aware Optimization (paper Section 3.6): a line sweep pays its
// per-line cost once per swept line, so sweep along whichever axis has
// MORE pixels — i.e. iterate over the min(X, Y) lines. RAO is therefore
// only the engine's choice of sweep axis: on a tall grid (Y > X) its one
// copy of the points is written with x and y swapped and the shared driver
// stores each swept line down a column of the output
// (SweptLines::kColumns, core/sweep_rows.h). Exact; lowers the complexity
// to O(min(X,Y) (max(X,Y) + n)) per Theorem 3 with the bucket sweep.
#pragma once

#include "kdv/task.h"

namespace slam {

/// True when RAO sweeps columns instead of rows (Y > X).
inline bool RaoWouldTranspose(const KdvTask& task) {
  return task.grid.height() > task.grid.width();
}

}  // namespace slam
