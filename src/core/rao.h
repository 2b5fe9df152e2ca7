// Resolution-Aware Optimization (paper Section 3.6) is the engine's choice
// of sweep axis: rows, or columns of the output. The paper sweeps columns
// when Y > X, because each of its lines scans all n points, so fewer lines
// means less n-dependent work. The engine's lines instead slice their
// envelopes out of one reach-ordered copy (DESIGN.md §4 item 4), so what a
// sweep reads is Σ m_j ≈ n·min(L, 2b/gap) envelope points: it depends on
// the gap between the lines, not on how many there are. RAO therefore
// sweeps the axis with fewer point–line pairs. Columns also pay for their
// stores across the raster. When every line sees every point
// (2b/gap >= L on both axes), the rule is the paper's Y > X up to that
// store term. A column sweep writes the one copy with x and y swapped, and
// ComputeEndpointSweep stores the swept lines into columns of the output,
// kColumnBlockLines at a time (SweptLines::kColumns, core/sweep_rows.h).
// Either axis is exact.
#pragma once

#include <algorithm>

#include "kdv/task.h"

namespace slam {

/// What a column costs per pixel to store, in units of the line work of
/// one envelope point. Fit when each line was stored alone, down the
/// raster with a stride of X doubles: 5–12 ns per pixel in isolation,
/// about 0.4–0.9 of an envelope point. Timings of both axes on LA's
/// near-square Epanechnikov tasks fit 0.76 (DESIGN.md §4 item 2). An
/// envelope point's work grows with the kernel's channels, so uniform
/// tasks would fit about 1 and quartic ones about 0.5. Stores now go in
/// blocks of 8 lines, a row of each block at a time, at a fifth to a half
/// of that cost in the copy loop alone; the weight is not refit yet
/// (ROADMAP item 8), so the rule still picks the axes it picked.
inline constexpr double kColumnStoreWork = 0.75;

/// True when RAO sweeps columns instead of rows: when the columns'
/// point–line pairs plus their stores come to less than the rows' pairs.
/// Ties go to rows. Only the points the engine's copy keeps count, those
/// within b of the grid on both axes (DESIGN.md §6): on a zoomed or panned
/// view the rest reach no line. A kept point reaches the lines within b of
/// it: about 2b/gap of them, fewer near the grid's edge, and at most all L.
/// Away from the edges n kept points therefore make n·min(L, 2b/gap)
/// pairs. A NaN point is never kept, so sanitizing does not change the
/// answer. One pass over the points, no allocation.
inline bool RaoWouldTranspose(const KdvTask& task) {
  const Grid& grid = task.grid;
  const double b = task.bandwidth;
  const GridAxis& x = grid.x_axis();
  const GridAxis& y = grid.y_axis();
  // Kept: within b of the first and last pixel centres on both axes.
  const double x_keep_lo = x.Coord(0) - b;
  const double x_keep_hi = x.last() + b;
  const double y_keep_lo = y.Coord(0) - b;
  const double y_keep_hi = y.last() + b;
  // Each line owns the gap centred on it, so the length of [s − b, s + b]
  // inside an axis's span, half a gap beyond those centres, is about a
  // gap per line within b of s. A kept point's interval overlaps the span
  // by at least half a gap, so the length needs no clamp at zero.
  const double x_lo = x.Coord(0) - 0.5 * x.gap;
  const double x_hi = x.last() + 0.5 * x.gap;
  const double y_lo = y.Coord(0) - 0.5 * y.gap;
  const double y_hi = y.last() + 0.5 * y.gap;
  double row_reach = 0.0;
  double column_reach = 0.0;
  for (const Point& p : task.points) {
    const bool kept = p.x >= x_keep_lo && p.x <= x_keep_hi &&
                      p.y >= y_keep_lo && p.y <= y_keep_hi;
    const double y_reach = std::min(p.y + b, y_hi) - std::max(p.y - b, y_lo);
    const double x_reach = std::min(p.x + b, x_hi) - std::max(p.x - b, x_lo);
    row_reach += kept ? y_reach : 0.0;
    column_reach += kept ? x_reach : 0.0;
  }
  return column_reach / x.gap +
             kColumnStoreWork * static_cast<double>(grid.pixel_count()) <
         row_reach / y.gap;
}

}  // namespace slam
