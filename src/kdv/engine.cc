#include "kdv/engine.h"

#include <algorithm>
#include <array>
#include <vector>

#include "baselines/akde.h"
#include "baselines/quad.h"
#include "baselines/rqs.h"
#include "baselines/scan.h"
#include "baselines/zorder.h"
#include "core/rao.h"
#include "core/slam_bucket.h"
#include "core/slam_sort.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace slam {

namespace {

constexpr std::array<Method, 10> kAllMethods = {
    Method::kScan,      Method::kRqsKd,       Method::kRqsBall,
    Method::kZorder,    Method::kAkde,        Method::kQuad,
    Method::kSlamSort,  Method::kSlamBucket,  Method::kSlamSortRao,
    Method::kSlamBucketRao,
};

constexpr std::array<Method, 8> kExactMethods = {
    Method::kScan,        Method::kRqsKd,       Method::kRqsBall,
    Method::kQuad,        Method::kSlamSort,    Method::kSlamBucket,
    Method::kSlamSortRao, Method::kSlamBucketRao,
};

using MethodFn = Status (*)(const KdvTask&, const ComputeOptions&,
                            DensityMap*);

MethodFn Dispatch(Method method) {
  switch (method) {
    case Method::kScan:
      return &ComputeScan;
    case Method::kRqsKd:
      return &ComputeRqsKd;
    case Method::kRqsBall:
      return &ComputeRqsBall;
    case Method::kZorder:
      return &ComputeZorder;
    case Method::kAkde:
      return &ComputeAkde;
    case Method::kQuad:
      return &ComputeQuad;
    case Method::kSlamSort:
      return &ComputeSlamSort;
    case Method::kSlamBucket:
      return &ComputeSlamBucket;
    case Method::kSlamSortRao:
      return &ComputeSlamSortRao;
    case Method::kSlamBucketRao:
      return &ComputeSlamBucketRao;
  }
  return nullptr;
}

bool MethodIsRao(Method method) {
  return method == Method::kSlamSortRao || method == Method::kSlamBucketRao;
}

/// The SLAM methods' one copy of the input (DESIGN.md §4 item 4): the
/// points that can reach a swept line, recentered by `shift`, stable-sorted
/// by the coordinate s the sweep will cut envelopes on (x when RAO will
/// transpose, else y), so every line's envelope is a run of the sorted
/// order (core/sweep_rows.cc). A point is kept iff k_first − s <= b and
/// k_last − s >= −b: k − s only rises with k, so that keeps every point the
/// scan's |k − s| <= b admits at some line. Fills `*points` and `*swept`
/// (the task over the copy and the shifted grid); `charge` pays for the
/// copy.
Status CopySweptPoints(const KdvTask& task, Point shift, bool transposes,
                       ScopedMemoryCharge* charge, std::vector<Point>* points,
                       KdvTask* swept) {
  *swept = task;
  swept->grid = task.grid.Translated(shift.x, shift.y);
  const GridAxis& lines =
      transposes ? swept->grid.x_axis() : swept->grid.y_axis();
  const double first = lines.Coord(0);
  const double last = lines.last();
  const double b = task.bandwidth;
  const auto reaches = [&](const Point& p) {
    const double s = transposes ? p.x - shift.x : p.y - shift.y;
    return first - s <= b && last - s >= -b;
  };
  const auto kept = static_cast<size_t>(
      std::count_if(task.points.begin(), task.points.end(), reaches));
  // The copy, plus std::stable_sort's merge buffer (at most a second copy)
  // until the sort returns.
  SLAM_RETURN_NOT_OK(charge->Update(2 * kept * sizeof(Point)));
  points->reserve(kept);
  for (const Point& p : task.points) {
    if (reaches(p)) points->push_back({p.x - shift.x, p.y - shift.y});
  }
  if (transposes) {
    std::stable_sort(points->begin(), points->end(),
                     [](const Point& a, const Point& c) { return a.x < c.x; });
  } else {
    std::stable_sort(points->begin(), points->end(),
                     [](const Point& a, const Point& c) { return a.y < c.y; });
  }
  SLAM_RETURN_NOT_OK(charge->Update(kept * sizeof(Point)));
  swept->points = *points;
  return Status::OK();
}

}  // namespace

std::span<const Method> AllMethods() { return kAllMethods; }
std::span<const Method> ExactMethods() { return kExactMethods; }

std::string_view MethodName(Method method) {
  switch (method) {
    case Method::kScan:
      return "SCAN";
    case Method::kRqsKd:
      return "RQS_kd";
    case Method::kRqsBall:
      return "RQS_ball";
    case Method::kZorder:
      return "Z-order";
    case Method::kAkde:
      return "aKDE";
    case Method::kQuad:
      return "QUAD";
    case Method::kSlamSort:
      return "SLAM_SORT";
    case Method::kSlamBucket:
      return "SLAM_BUCKET";
    case Method::kSlamSortRao:
      return "SLAM_SORT_RAO";
    case Method::kSlamBucketRao:
      return "SLAM_BUCKET_RAO";
  }
  return "?";
}

Result<Method> MethodFromName(std::string_view name) {
  const std::string lower = ToLower(name);
  for (const Method m : kAllMethods) {
    if (lower == ToLower(MethodName(m))) return m;
  }
  // Friendly aliases.
  if (lower == "slam_sort_(rao)" || lower == "slam_sort(rao)") {
    return Method::kSlamSortRao;
  }
  if (lower == "slam_bucket_(rao)" || lower == "slam_bucket(rao)") {
    return Method::kSlamBucketRao;
  }
  if (lower == "zorder") return Method::kZorder;
  return Status::InvalidArgument("unknown KDV method '" + std::string(name) +
                                 "'");
}

bool MethodIsExact(Method method) {
  return method != Method::kZorder && method != Method::kAkde;
}

bool MethodIsSlam(Method method) {
  switch (method) {
    case Method::kSlamSort:
    case Method::kSlamBucket:
    case Method::kSlamSortRao:
    case Method::kSlamBucketRao:
      return true;
    default:
      return false;
  }
}

Result<DensityMap> ComputeKdv(const KdvTask& task, Method method,
                              const EngineOptions& options) {
  const ExecContext* exec = options.compute.exec;
  SLAM_RETURN_NOT_OK(ExecCheck(exec, "engine/start"));
  MethodFn fn = Dispatch(method);
  if (fn == nullptr) {
    return Status::InvalidArgument(
        StringPrintf("unknown method id %d",
                     static_cast<int>(method)));  // lint:allow(narrowing-cast)
  }
  // Sanitization precedes validation so that NaN/Inf points are dropped
  // rather than fatal; everything else (grid, bandwidth, weight) still
  // fails fast.
  KdvTask run_task = task;
  // Resolve the SIMD backend once per engine call: kAuto becomes a concrete
  // level here, so every row of every method in this computation runs the
  // same backend, and a pinned-but-unavailable level fails fast.
  EngineOptions run_options = options;
  SLAM_ASSIGN_OR_RETURN(run_options.compute.simd,
                        ResolveSimdLevel(options.compute.simd));
  std::vector<Point> finite_points;
  if (options.sanitize) {
    const size_t dropped = CopyFinitePoints(task.points, &finite_points);
    if (dropped > 0) {
      SLAM_LOG(Warning) << "sanitize: dropped " << dropped << " of "
                        << task.points.size()
                        << " points with non-finite coordinates";
      run_task.points = finite_points;
    }
  }
  SLAM_RETURN_NOT_OK(ValidateTask(run_task));
  if (MethodIsSlam(method) && !KernelSupportedBySlam(run_task.kernel)) {
    return Status::InvalidArgument(
        "SLAM cannot support the " +
        std::string(KernelTypeName(run_task.kernel)) +
        " kernel: its density has no finite aggregate decomposition "
        "(paper Section 3.7)");
  }
  // Pre-flight memory check: refuse before doing any work if the method's
  // analytic peak auxiliary space cannot fit in the remaining budget.
  if (exec != nullptr && exec->memory_budget() != nullptr) {
    SLAM_RETURN_NOT_OK(exec->CheckBudgetFor(
        EstimateAuxiliarySpaceBytes(method, run_task.points.size(),
                                    run_task.grid.width(),
                                    run_task.grid.height()),
        MethodName(method)));
  }
  DensityMap map;
  // Recentering only pays off when the coordinates are ill-conditioned for
  // the subtractive aggregate forms; well-conditioned tasks are computed
  // unshifted.
  const bool recenter =
      options.recenter_coordinates && TaskFarFromOrigin(run_task);
  const Point c =
      recenter
          ? Point{run_task.grid.x_axis().Coord(run_task.grid.width() / 2),
                  run_task.grid.y_axis().Coord(run_task.grid.height() / 2)}
          : Point{0.0, 0.0};
  if (MethodIsSlam(method)) {
    ScopedMemoryCharge swept_charge(exec, "engine/swept_points");
    std::vector<Point> swept_points;
    KdvTask swept;
    SLAM_RETURN_NOT_OK(CopySweptPoints(
        run_task, c, MethodIsRao(method) && RaoWouldTranspose(run_task),
        &swept_charge, &swept_points, &swept));
    SLAM_RETURN_NOT_OK(fn(swept, run_options.compute, &map));
  } else if (recenter) {
    ScopedMemoryCharge recenter_charge(exec, "engine/recentered_points");
    SLAM_RETURN_NOT_OK(
        recenter_charge.Update(run_task.points.size() * sizeof(Point)));
    const TranslatedTask translated(run_task, c.x, c.y);
    SLAM_RETURN_NOT_OK(fn(translated.task(), run_options.compute, &map));
  } else {
    SLAM_RETURN_NOT_OK(fn(run_task, run_options.compute, &map));
  }
  return map;
}

size_t EstimateAuxiliarySpaceBytes(Method method, size_t n, int width,
                                   int height) {
  const size_t point_bytes = sizeof(Point);
  // Tree nodes: ~2n/leaf_size nodes; sizes from the index headers.
  const size_t tree_nodes = 2 * n / 32 + 2;
  switch (method) {
    case Method::kScan:
      return 0;
    case Method::kRqsKd:
    case Method::kAkde:
      return n * point_bytes + tree_nodes * 160;  // KdTree::Node
    case Method::kRqsBall:
      return n * point_bytes + tree_nodes * 152;  // BallTree::Node
    case Method::kZorder:
      return n * point_bytes;  // Morton-sorted copy (sample is tiny)
    case Method::kQuad:
      return n * point_bytes + tree_nodes * 176;  // QuadTree::Node
    case Method::kSlamSort:
    case Method::kSlamSortRao:
    case Method::kSlamBucket:
    case Method::kSlamBucketRao: {
      // The engine's swept copy of the points (one Point each), RAO's
      // transposed copy of it when Y > X (one more), then the shared
      // counting-sort driver (core/sweep_rows.cc) on one SweepArena: SoA
      // envelope + interval + scattered endpoint lanes (8 doubles per
      // point) + per-endpoint bucket indices (2 int32), plus bucket
      // offset/cursor arrays and the per-pixel lanes (<= 12 snapshot
      // channels + qx, 13 doubles per pixel) spanning the swept axis. The
      // copy's sort buffer (one more Point each) is freed before the arena
      // is charged, so the arena's per-point term covers it. RAO sweeps
      // min(X, Y) lines of max(X, Y) pixels, so its per-pixel arrays span
      // the longer axis.
      const bool transposes = MethodIsRao(method) && height > width;
      const size_t x = static_cast<size_t>(transposes ? height : width);
      const size_t copies = transposes ? 2 : 1;
      return n * (copies * point_bytes + sizeof(double) * 8 +
                  sizeof(int32_t) * 2) +
             (x + 2) * sizeof(int32_t) * 4 + x * sizeof(double) * 13;
    }
  }
  return 0;
}

}  // namespace slam
