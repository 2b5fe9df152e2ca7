#include "kdv/task.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"
#include "util/validate.h"

namespace slam {

namespace {

/// The per-point acceptance test shared by ValidateTask (reject) and
/// CopyFinitePoints (drop): finite AND within the shared magnitude cap.
/// The cap closes the finite-but-huge hole — a 1e300 coordinate passes
/// std::isfinite yet overflows the fourth-power aggregate moments, turning
/// the closed-form sweep into NaN with no error anywhere.
bool PointAcceptable(const Point& p) {
  return CoordinateInRange(p.x) && CoordinateInRange(p.y);
}

}  // namespace

Status ValidateTask(const KdvTask& task) {
  SLAM_RETURN_NOT_OK(CheckGridDims(task.grid.width(), task.grid.height()));
  if (!(task.grid.x_axis().gap > 0.0) || !(task.grid.y_axis().gap > 0.0)) {
    return Status::InvalidArgument("task grid gaps must be positive");
  }
  SLAM_RETURN_NOT_OK(CheckCoordinate(task.grid.x_axis().origin,
                                     "grid x origin"));
  SLAM_RETURN_NOT_OK(CheckCoordinate(task.grid.y_axis().origin,
                                     "grid y origin"));
  SLAM_RETURN_NOT_OK(CheckPositiveNormal(task.bandwidth, "bandwidth"));
  SLAM_RETURN_NOT_OK(
      CheckPositiveNormal(task.weight, "normalization weight"));
  for (size_t i = 0; i < task.points.size(); ++i) {
    const Point& p = task.points[i];
    if (!PointAcceptable(p)) {
      return Status::InvalidArgument(StringPrintf(
          "point %zu has non-finite or out-of-range coordinates (%g, %g); "
          "the magnitude cap is %g; enable EngineOptions::sanitize to drop "
          "such points",
          i, p.x, p.y, InputLimits::kMaxCoordinateMagnitude));
    }
  }
  return Status::OK();
}

size_t CopyFinitePoints(std::span<const Point> points,
                        std::vector<Point>* out) {
  out->clear();
  out->reserve(points.size());
  for (const Point& p : points) {
    if (PointAcceptable(p)) out->push_back(p);
  }
  return points.size() - out->size();
}

bool TaskFarFromOrigin(const KdvTask& task) {
  const GridAxis& xs = task.grid.x_axis();
  const GridAxis& ys = task.grid.y_axis();
  const double cx = 0.5 * (xs.origin + xs.last());
  const double cy = 0.5 * (ys.origin + ys.last());
  const double span = std::max(xs.last() - xs.origin, ys.last() - ys.origin);
  // The aggregate terms grow like ||p||^4 while the densities live at the
  // bandwidth scale; once the offset exceeds ~16x the working extent the
  // recentering copy is cheaper than the precision it saves.
  const double extent = std::max(span + 2.0 * task.bandwidth, 1e-300);
  return std::max(std::abs(cx), std::abs(cy)) > 16.0 * extent;
}

KdvTask MakeTask(const PointDataset& dataset, const Viewport& viewport,
                 KernelType kernel, double bandwidth) {
  KdvTask task;
  task.points = dataset.coords();
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = dataset.empty() ? 1.0 : 1.0 / static_cast<double>(dataset.size());
  task.grid = Grid::FromViewport(viewport);
  return task;
}

TranslatedTask::TranslatedTask(const KdvTask& task, double dx, double dy) {
  shifted_points_.reserve(task.points.size());
  for (const Point& p : task.points) {
    shifted_points_.push_back({p.x - dx, p.y - dy});
  }
  task_ = task;
  task_.points = shifted_points_;
  task_.grid = task.grid.Translated(dx, dy);
}

TransposedTask::TransposedTask(const KdvTask& task) {
  swapped_points_.reserve(task.points.size());
  for (const Point& p : task.points) {
    swapped_points_.push_back({p.y, p.x});
  }
  task_ = task;
  task_.points = swapped_points_;
  task_.grid = task.grid.Transposed();
}

}  // namespace slam
