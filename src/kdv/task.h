// A KDV task: the full input to any of the ten methods — data points,
// kernel, bandwidth, normalization constant, and the pixel grid.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.h"
#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/dispatch.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace slam {

struct KdvTask {
  std::span<const Point> points;
  KernelType kernel = KernelType::kEpanechnikov;
  double bandwidth = 1.0;
  /// The paper's normalization constant w (Problem 1). 1/n by convention;
  /// any positive value is legal since it only scales the raster.
  double weight = 1.0;
  Grid grid;
};

/// Per-computation knobs shared by every method implementation.
struct ComputeOptions {
  /// Hardened execution context: cancellation token, deadline, memory
  /// budget, fault injection (util/exec_context.h). Methods poll it between
  /// pixel rows and at phase boundaries (index build, transposition) and
  /// account their workspace allocations against its budget. Nullptr =
  /// unlimited. The deadline member implements the paper's ">14400 sec"
  /// censoring rule for the experiment harness.
  const ExecContext* exec = nullptr;
  /// Z-order baseline: target uniform density error (fraction of the
  /// density scale); sample size is ~1/eps² (Zheng et al. [73]).
  double zorder_epsilon = 0.005;
  /// aKDE baseline: per-point absolute kernel-value tolerance. The tight
  /// default mirrors the paper's setup, where aKDE refines almost
  /// everything and lands at the slow end of the field (Table 7).
  double akde_epsilon = 1e-6;
  /// QUAD baseline: bound-gap tolerance; 0 = exact filter-and-refine.
  double quad_epsilon = 0.0;
  /// Sweep methods: accumulate the L/U aggregates with Neumaier-compensated
  /// summation so long rows (millions of endpoint passes) don't drift. On
  /// by default — roughly doubles the per-endpoint add cost, which is
  /// dwarfed by the per-pixel closed-form evaluation (DESIGN.md §7).
  bool compensated_aggregates = true;
  /// Sweep methods: instruction-set backend for the row primitives
  /// (src/simd/, DESIGN.md §11). kAuto picks the best available at runtime,
  /// resolved once per engine call; pinning an unavailable level is an
  /// InvalidArgument, never a silent fallback. All backends agree with the
  /// scalar reference to well under the 1e-9 oracle tolerance.
  SimdLevel simd = SimdLevel::kAuto;
};

/// The lines [begin, end) one method body computes. Every body (the six
/// baselines and the SLAM sweep, core/sweep_rows.h) takes a task the engine
/// has already validated, and writes only those lines into a raster its
/// caller created: rows of the task's grid, or columns of the output when
/// the SLAM sweep runs along columns. Lines are independent, so the engine
/// can run disjoint ranges of one raster on different threads
/// (ComputeKdvParallel) and get the serial raster bit for bit.
struct RowRange {
  int begin = 0;
  int end = 0;
};

/// Rejects empty grids, non-positive or non-finite bandwidth/weight, and
/// points with NaN/Inf coordinates (the O(n) scan is negligible next to
/// any density computation, which is at least O(n) per pixel row). To drop
/// bad points instead of failing, see EngineOptions::sanitize.
Status ValidateTask(const KdvTask& task);

/// Indices-free helper behind EngineOptions::sanitize: copies the finite
/// points of `points` into `*out` and returns how many were dropped.
size_t CopyFinitePoints(std::span<const Point> points,
                        std::vector<Point>* out);

/// True when the task's coordinates are poorly conditioned for the
/// subtractive aggregate arithmetic: the grid center's magnitude dwarfs
/// the working extent (viewport span plus a bandwidth margin), as with
/// projected coordinates far from the datum (EPSG:3857 meters). Drives
/// the engine's automatic recentering and QUAD's local-frame build.
bool TaskFarFromOrigin(const KdvTask& task);

/// Convenience: a task over a dataset rendered through a viewport, with
/// weight defaulting to 1/n.
KdvTask MakeTask(const PointDataset& dataset, const Viewport& viewport,
                 KernelType kernel, double bandwidth);

/// Materialized translated copy of a task (for floating-point
/// conditioning). Owns the shifted points.
class TranslatedTask {
 public:
  /// Shifts all coordinates by (-dx, -dy).
  TranslatedTask(const KdvTask& task, double dx, double dy);

  const KdvTask& task() const { return task_; }

 private:
  std::vector<Point> shifted_points_;
  KdvTask task_;
};

/// Transposed copy of a task: x and y swapped in both points and grid.
/// Running a row sweep on the transposed task is a column sweep on the
/// original (RAO, paper Section 3.6).
class TransposedTask {
 public:
  explicit TransposedTask(const KdvTask& task);

  const KdvTask& task() const { return task_; }

 private:
  std::vector<Point> swapped_points_;
  KdvTask task_;
};

}  // namespace slam
