#include "kdv/engine.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "baselines/akde.h"
#include "baselines/quad.h"
#include "baselines/rqs.h"
#include "baselines/scan.h"
#include "baselines/zorder.h"
#include "core/rao.h"
#include "core/sweep_rows.h"
#include "kdv/parallel.h"
#include "simd/sweep_ops.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/narrow.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

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

using MethodFn = Status (*)(const KdvTask&, const ComputeOptions&, RowRange,
                            DensityMap*);

/// The baselines' entry points; the SLAM methods run the sweep driver
/// directly (SweepLabels).
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
    default:
      return nullptr;
  }
}

/// The sweep family a SLAM method runs under, or null for the baselines.
const SweepMethodLabels* SweepLabels(Method method) {
  switch (method) {
    case Method::kSlamSort:
    case Method::kSlamSortRao:
      return &kSlamSortLabels;
    case Method::kSlamBucket:
    case Method::kSlamBucketRao:
      return &kSlamBucketLabels;
    default:
      return nullptr;
  }
}

bool MethodIsRao(Method method) {
  return method == Method::kSlamSortRao || method == Method::kSlamBucketRao;
}

/// A SLAM stripe's copy of the input (DESIGN.md §4 item 4), in the
/// sweep frame: recentered by `shift`, x and y swapped when the lines are
/// columns, and stable-sorted by y, so every line's envelope is a run of
/// the sorted order (core/sweep_rows.cc). A point is kept iff
/// k_first − s <= b and k_last − s >= −b, with k the pixel coordinates
/// and s the point's, taken across the whole grid and along the swept
/// axis from the stripe's first line to its last. Along it, k − s only
/// rises with k, so that keeps every point the scan's |k − s| <= b admits
/// at some line of the stripe, and each line's run holds the same points
/// in the same order as in a copy for any wider stripe. Across it, a
/// dropped point is farther than b from every pixel and adds zero to
/// each; kept, its endpoints would park before pixel 0 and cancel out of
/// L − U only up to rounding (DESIGN.md §6). Fills `*points` and `*swept`
/// (the task over the copy and the shifted grid, transposed for
/// columns); `charge` pays for the copy.
Status CopySweptPoints(const KdvTask& task, Point shift, SweptLines lines,
                       RowRange rows, ScopedMemoryCharge* charge,
                       std::vector<Point>* points, KdvTask* swept) {
  const bool columns = lines == SweptLines::kColumns;
  const Grid shifted = task.grid.Translated(shift.x, shift.y);
  *swept = task;
  swept->grid = columns ? shifted.Transposed() : shifted;
  const auto in_frame = [&](const Point& p) {
    const Point s{p.x - shift.x, p.y - shift.y};
    return columns ? Point{s.y, s.x} : s;
  };
  const GridAxis along = swept->grid.y_axis();
  const GridAxis across = swept->grid.x_axis();
  const auto near = [b = task.bandwidth](double first, double last,
                                         double s) {
    return first - s <= b && last - s >= -b;
  };
  const auto reaches = [&](const Point& p) {
    const Point s = in_frame(p);
    return near(along.Coord(rows.begin), along.Coord(rows.end - 1), s.y) &&
           near(across.Coord(0), across.last(), s.x);
  };
  const auto kept = static_cast<size_t>(
      std::count_if(task.points.begin(), task.points.end(), reaches));
  // The copy, plus std::stable_sort's merge buffer (at most a second copy)
  // until the sort returns.
  SLAM_RETURN_NOT_OK(charge->Update(2 * kept * sizeof(Point)));
  points->reserve(kept);
  for (const Point& p : task.points) {
    if (reaches(p)) points->push_back(in_frame(p));
  }
  std::stable_sort(points->begin(), points->end(),
                   [](const Point& a, const Point& c) { return a.y < c.y; });
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

bool MethodIsSlam(Method method) { return SweepLabels(method) != nullptr; }

namespace {

/// First-failure-wins aggregation across stripe threads. Record() keeps
/// only the first status and trips the stripe cancellation token so
/// sibling stripes stop at their next row poll; later statuses (usually
/// the secondary Cancelled the siblings then report) are dropped.
class FirstErrorCollector {
 public:
  explicit FirstErrorCollector(CancellationToken* stripe_cancel)
      : stripe_cancel_(stripe_cancel) {}

  void Record(const Status& status) {
    MutexLock lock(&mutex_);
    if (first_error_.ok()) {
      first_error_ = status;
      stripe_cancel_->Cancel();  // stop sibling stripes
    }
  }

  /// Safe to call only after every stripe thread has joined.
  Status TakeStatus() {
    MutexLock lock(&mutex_);
    return first_error_;
  }

 private:
  CancellationToken* const stripe_cancel_;
  Mutex mutex_;
  Status first_error_ SLAM_GUARDED_BY(mutex_);
};

/// The one body behind ComputeKdv and ComputeKdvParallel. The prologue
/// (sanitize, SIMD resolve, validation, the SLAM kernel rule, the budget
/// pre-flight, the recenter shift, RAO's sweep axis and the raster) runs
/// once per call. Then the swept lines [0, L) run as one stripe on the
/// calling thread, or, given `num_threads`, as ParallelFor's chunks across
/// a pool; every line is computed from the same inputs either way, so the
/// raster is the same bit for bit.
Result<DensityMap> RunEngine(const KdvTask& task, Method method,
                             const EngineOptions& options,
                             std::optional<int> num_threads) {
  const ExecContext* exec = options.compute.exec;
  SLAM_RETURN_NOT_OK(ExecCheck(exec, "engine/start"));
  const SweepMethodLabels* sweep = SweepLabels(method);
  MethodFn fn = Dispatch(method);
  if (fn == nullptr && sweep == nullptr) {
    return Status::InvalidArgument(
        StringPrintf("unknown method id %d",
                     static_cast<int>(method)));  // lint:allow(narrowing-cast)
  }
  // Sanitization precedes validation so that NaN/Inf points are dropped
  // rather than fatal; everything else (grid, bandwidth, weight) still
  // fails fast.
  KdvTask run_task = task;
  // Resolve the SIMD backend once per engine call: kAuto becomes a concrete
  // level here, so every line of every method in this computation runs the
  // same backend, and a pinned-but-unavailable level fails fast.
  ComputeOptions compute = options.compute;
  SLAM_ASSIGN_OR_RETURN(compute.simd, ResolveSimdLevel(options.compute.simd));
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
  if (sweep != nullptr) {
    SLAM_RETURN_NOT_OK(CheckKernelSupportedBySlam(run_task.kernel));
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
  // RAO's choice of sweep axis: columns on a tall grid.
  const SweptLines lines = MethodIsRao(method) && RaoWouldTranspose(run_task)
                               ? SweptLines::kColumns
                               : SweptLines::kRows;
  SLAM_ASSIGN_OR_RETURN(
      DensityMap map,
      DensityMap::Create(run_task.grid.width(), run_task.grid.height()));
  // The baselines share one task, recentered once when the shift applies;
  // each SLAM stripe copies the points it can reach (CopySweptPoints).
  ScopedMemoryCharge recenter_charge(exec, "engine/recentered_points");
  std::optional<TranslatedTask> translated;
  if (sweep == nullptr && recenter) {
    SLAM_RETURN_NOT_OK(
        recenter_charge.Update(run_task.points.size() * sizeof(Point)));
    translated.emplace(run_task, c.x, c.y);
  }
  const KdvTask& method_task = translated ? translated->task() : run_task;
  // One stripe of lines, on whichever thread runs it.
  const auto run_stripe = [&](RowRange rows,
                              const ComputeOptions& stripe_compute) {
    if (sweep == nullptr) return fn(method_task, stripe_compute, rows, &map);
    ScopedMemoryCharge swept_charge(stripe_compute.exec,
                                    "engine/swept_points");
    std::vector<Point> swept_points;
    KdvTask swept;
    SLAM_RETURN_NOT_OK(CopySweptPoints(run_task, c, lines, rows, &swept_charge,
                                       &swept_points, &swept));
    return ComputeEndpointSweep(swept, stripe_compute, *sweep, lines, rows,
                                &map);
  };
  const int num_lines = lines == SweptLines::kColumns ? run_task.grid.width()
                                                      : run_task.grid.height();
  if (!num_threads.has_value()) {
    SLAM_RETURN_NOT_OK(run_stripe({0, num_lines}, compute));
    return map;
  }

  SLAM_RETURN_NOT_OK(ExecCheck(exec, "parallel/start"));
  // Stripes share the caller's deadline/budget/fault injector but get a
  // cancellation token chained to the caller's: the first failing stripe
  // trips it, so sibling stripes stop at their next line poll instead of
  // running to completion.
  CancellationToken stripe_cancel(exec != nullptr ? exec->cancellation()
                                                  : nullptr);
  ExecContext stripe_exec;
  if (exec != nullptr) stripe_exec = *exec;
  stripe_exec.set_cancellation(&stripe_cancel);
  ComputeOptions stripe_options = compute;
  stripe_options.exec = &stripe_exec;
  FirstErrorCollector errors(&stripe_cancel);
  {
    // Scope: the pool joins before the first error is read or `map`
    // returned, so no stripe thread outlives this function. Stripes write
    // disjoint lines of `map`, so the raster needs no lock.
    ThreadPool pool(*num_threads);
    ParallelFor(&pool, 0, num_lines, [&](int64_t begin, int64_t end) {
      // A Cancelled here is a sibling's doing, and its error is already
      // recorded; Record() keeps only the first status.
      Status status = stripe_exec.Check("parallel/stripe");
      if (status.ok()) {
        status = run_stripe({PixelIndex(begin), PixelIndex(end)},
                            stripe_options);
      }
      if (!status.ok()) errors.Record(status);
    });
  }
  SLAM_RETURN_NOT_OK(errors.TakeStatus());
  return map;
}

}  // namespace

Result<DensityMap> ComputeKdv(const KdvTask& task, Method method,
                              const EngineOptions& options) {
  return RunEngine(task, method, options, std::nullopt);
}

Result<DensityMap> ComputeKdvParallel(const KdvTask& task, Method method,
                                      const ParallelOptions& options) {
  return RunEngine(task, method, options.engine, options.num_threads);
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
      // The engine's swept copy of the points (one Point each), then one
      // SweepArena (core/sweep_rows.cc): per point, the envelope and
      // interval lanes (4 doubles) and the bucket indices (2 int32); per
      // pixel of a swept line, X + 1 buckets of quartic's 24 doubles (12
      // sums and 12 compensation terms, the widest bucket — the estimate
      // takes no kernel) and qx. The copy's sort buffer (one more
      // Point each) is freed before the arena is charged, so the arena's
      // per-point term covers it. RAO sweeps min(X, Y) lines of max(X, Y)
      // pixels, so its per-pixel lanes span the longer axis; sweeping
      // columns adds the line lane the column is stored from (one more
      // double per pixel).
      const bool columns = MethodIsRao(method) && height > width;
      const size_t x = static_cast<size_t>(columns ? height : width);
      const size_t pixel_doubles = columns ? 2 : 1;
      return n * (point_bytes + sizeof(double) * 4 + sizeof(int32_t) * 2) +
             ((x + 1) * BucketStride(KernelType::kQuartic) +
              x * pixel_doubles) *
                 sizeof(double);
    }
  }
  return 0;
}

}  // namespace slam
