// The line loops behind the four SLAM methods (DESIGN.md §12).
// SLAM_SORT and SLAM_BUCKET run the same dispatched passes
// (simd/sweep_ops.h) per swept line, and RAO (paper Section 3.6) only
// picks the axis the lines run along. The engine's loop slices each
// line's envelope out of its y-sorted copy and keeps per-pixel bucket sums
// (bound_intervals → bucket_indices → bucket_sweep); the direct entry keeps
// Lemma 1's scan and the counting sort (envelope_filter → bound_intervals
// → bucket_indices → histogram_scatter → row_sweep). What differs between
// the families is each one's public names — checkpoint sites, budget-charge
// tags, error messages — and, for RAO, whether a swept line is a row or a
// column of the output.
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
  const char* row;        // per-line checkpoint site, e.g. "slam_sort/row"
};

/// Each family's labels; a RAO variant runs under its base method's.
inline constexpr SweepMethodLabels kSlamSortLabels = {
    "SLAM_SORT", "slam_sort/workspace", "slam_sort/row"};
inline constexpr SweepMethodLabels kSlamBucketLabels = {
    "SLAM_BUCKET", "slam_bucket/workspace", "slam_bucket/row"};

/// Which lines of the output the sweep's lines are. The task is always in
/// the sweep frame, with lines along its x axis stacked along its y axis.
/// kRows: swept line i is row i of an output shaped like the task's grid.
/// kColumns (RAO on a tall grid, the task being the transposed problem):
/// swept line i is column i of an output shaped like the transposed grid.
enum class SweptLines { kRows, kColumns };

/// The engine's line loop: sweeps lines [rows.begin, rows.end) of `task` and
/// writes them into `*out`, which the caller created in the output's shape
/// (RowRange, kdv/task.h). `task.points` must be sorted by y (ascending, by
/// `<`), as ComputeKdv's swept copy is: each line's envelope is then a run
/// of them (SortedEnvelopeCursor), and bucket_sweep turns it into the
/// line's densities. Every lane is sized and charged before the first line.
Status ComputeEndpointSweep(const KdvTask& task, const ComputeOptions& options,
                            const SweepMethodLabels& labels, SweptLines lines,
                            RowRange rows, DensityMap* out);

/// A direct ComputeSlamSort / ComputeSlamBucket call, outside the engine:
/// validates the task and the SLAM kernel rule, creates `*out` and sweeps
/// every row of the points as given, in any order — Lemma 1's scan of all
/// points per row, then the counting sort and the run sweep.
Status ComputeDirectSweep(const KdvTask& task, const ComputeOptions& options,
                          const SweepMethodLabels& labels, DensityMap* out);

}  // namespace slam
