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
#include "core/envelope.h"
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

/// What a SLAM line costs per pixel, in units of what it costs per
/// envelope point: a line runs about m + kPixelWork·X units of work. A fit
/// of per-line time on uniform tasks (m 200–20,000, X 512–4096,
/// Epanechnikov, AVX2) put a pixel at about 0.6 points; the cut moves
/// little with it wherever envelopes are much longer than lines.
constexpr double kPixelWork = 0.5;

/// Cuts lines [0, num_lines) into min(num_lines, parts) stripes of at least
/// one line each whose weights add up to near-equal shares of the total:
/// a stripe ends at the first line where the running weight reaches its
/// share, or where only one line is left for each stripe still to come.
/// `weight(j) >= 0` is line j's.
template <typename Weight>
std::vector<RowRange> CutLines(int num_lines, int parts, Weight weight) {
  const int count = std::min(num_lines, parts);
  double total = 0.0;
  for (int j = 0; j < num_lines; ++j) total += weight(j);
  std::vector<RowRange> stripes;
  double running = 0.0;
  int begin = 0;
  for (int j = 0; j + 1 < num_lines && PixelIndex(stripes.size()) + 1 < count;
       ++j) {
    running += weight(j);
    const int cut = PixelIndex(stripes.size()) + 1;  // the stripe j may end
    if (running >= total * cut / count || num_lines - (j + 1) == count - cut) {
      stripes.push_back({begin, j + 1});
      begin = j + 1;
    }
  }
  stripes.push_back({begin, num_lines});
  return stripes;
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

  /// Safe to call only after every stripe has finished.
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
/// (sanitize, SIMD resolve, validation, the SLAM kernel rule, the recenter
/// shift, RAO's sweep axis, the budget pre-flight, the raster and what the
/// stripes share) runs once per call. Then the swept lines [0, L) run as
/// one stripe on the calling thread, or, given `num_threads`, as 2T
/// stripes cut by work (CutLines) across a pool of T threads; every line
/// is computed from the same inputs either way, so the raster is the same
/// bit for bit.
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
  // RAO's choice of sweep axis: columns when they read fewer point–line
  // pairs, stores included (core/rao.h).
  const SweptLines lines = MethodIsRao(method) && RaoWouldTranspose(run_task)
                               ? SweptLines::kColumns
                               : SweptLines::kRows;
  const int num_lines = lines == SweptLines::kColumns ? run_task.grid.width()
                                                      : run_task.grid.height();
  // The stripes run on the calling thread, one at a time, or on a pool,
  // one per thread at a time.
  std::optional<ThreadPool> pool;
  if (num_threads.has_value()) pool.emplace(*num_threads);
  const int parts = pool ? 2 * pool->num_threads() : 1;
  // Pre-flight memory check: refuse before doing any work if what the call
  // holds at its peak cannot fit in the remaining budget.
  if (exec != nullptr && exec->memory_budget() != nullptr) {
    const int stripes_at_once =
        pool ? std::min(pool->num_threads(), num_lines) : 1;
    SLAM_RETURN_NOT_OK(exec->CheckBudgetFor(
        EstimateAuxiliarySpaceBytes(method, run_task.points.size(),
                                    run_task.grid.width(),
                                    run_task.grid.height(), stripes_at_once,
                                    recenter),
        MethodName(method)));
  }
  SLAM_ASSIGN_OR_RETURN(
      DensityMap map,
      DensityMap::Create(run_task.grid.width(), run_task.grid.height()));
  // What the stripes share is made once. The baselines read one task,
  // recentered when the shift applies, and cost about the same per line.
  // The SLAM methods read one swept copy in reach order (DESIGN.md §4
  // item 4): each stripe sweeps the run of it its lines reach, and the
  // lines are cut by the envelope work the copy's pass counted.
  ScopedMemoryCharge recenter_charge(exec, "engine/recentered_points");
  std::optional<TranslatedTask> translated;
  ScopedMemoryCharge swept_charge(exec, "engine/swept_points");
  SweptCopy swept_copy;
  KdvTask swept = run_task;
  std::vector<RowRange> stripes;
  std::vector<size_t> widest;  // each SLAM stripe's largest envelope
  if (sweep == nullptr) {
    if (recenter) {
      SLAM_RETURN_NOT_OK(
          recenter_charge.Update(run_task.points.size() * sizeof(Point)));
      translated.emplace(run_task, c.x, c.y);
    }
    stripes = CutLines(num_lines, parts, [](int) { return 1.0; });
  } else {
    const SweepFrame frame{c, lines == SweptLines::kColumns};
    const Grid shifted = run_task.grid.Translated(c.x, c.y);
    swept.grid = frame.transposed ? shifted.Transposed() : shifted;
    // The lines read the copy's lanes, not the task's points.
    swept.points = {};
    std::vector<size_t> envelope_sizes;
    SLAM_RETURN_NOT_OK(OrderByReach(
        run_task.points, frame, swept.grid.y_axis(), swept.grid.x_axis(),
        swept.bandwidth, exec, &swept_charge, &swept_copy, &envelope_sizes));
    const double pixel_work = kPixelWork * swept.grid.width();
    stripes = CutLines(num_lines, parts, [&](int j) {
      return static_cast<double>(envelope_sizes[CheckedSize(j)]) + pixel_work;
    });
    for (const RowRange& rows : stripes) {
      widest.push_back(*std::max_element(envelope_sizes.begin() + rows.begin,
                                         envelope_sizes.begin() + rows.end));
    }
    // The per-line counts go before any stripe charges its arena.
    std::vector<size_t>().swap(envelope_sizes);
    SLAM_RETURN_NOT_OK(
        swept_charge.Update(swept_copy.size() * 2 * sizeof(double)));
  }
  const KdvTask& method_task = translated ? translated->task() : run_task;
  // Stripe `s`, on whichever thread runs it.
  const auto run_stripe = [&](size_t s, const ComputeOptions& stripe_compute) {
    const RowRange rows = stripes[s];
    if (sweep == nullptr) return fn(method_task, stripe_compute, rows, &map);
    const LaneRange run =
        ReachingRun(swept_copy.Lanes().y, swept.grid.y_axis(), rows.begin,
                    rows.end, swept.bandwidth);
    return ComputeEndpointSweep(swept, swept_copy.Lanes(run), stripe_compute,
                                *sweep, lines, rows, widest[s], &map);
  };
  if (!pool) {
    SLAM_RETURN_NOT_OK(run_stripe(0, compute));
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
  // ParallelFor returns once every stripe has finished, before the first
  // error is read or `map` returned. Stripes write disjoint lines of
  // `map`, so the raster needs no lock.
  ParallelFor(&*pool, 0, static_cast<int64_t>(stripes.size()),
              [&](int64_t begin, int64_t end) {
                for (int64_t s = begin; s < end; ++s) {
                  // A Cancelled here is a sibling's doing, and its error is
                  // already recorded; Record() keeps only the first status.
                  Status status = stripe_exec.Check("parallel/stripe");
                  if (status.ok()) {
                    status = run_stripe(CheckedSize(s), stripe_options);
                  }
                  if (!status.ok()) errors.Record(status);
                }
              });
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
                                   int height, int stripes, bool recentered) {
  const size_t point_bytes = sizeof(Point);
  const size_t at_once = CheckedSize(std::max(stripes, 1));
  // An index holds a copy of the points and a node lane; node sizes are
  // rounded up from the index headers. The kd- and ball trees reserve
  // 2n/32 + 2 nodes, and a median split into leaves of at most 32 points
  // needs fewer than twice that, so their lane doubles at most once. The
  // quadtree's lane doubles from empty, to at most twice its node count;
  // QUAD's node lane is priced at four times the tree reserve, which covers
  // the uniform test data and the four cities but not every distribution
  // (DESIGN.md §5).
  const size_t tree_nodes = 2 * (2 * n / 32 + 2);
  const size_t kd_tree = n * point_bytes + tree_nodes * 160;  // KdTree::Node
  size_t per_stripe = 0;
  switch (method) {
    case Method::kScan:
      break;
    case Method::kRqsKd:
    case Method::kAkde:
      per_stripe = kd_tree;
      break;
    case Method::kRqsBall:
      per_stripe = n * point_bytes + tree_nodes * 152;  // BallTree::Node
      break;
    case Method::kZorder:
      // The sample (at most all n points), then RQS_kd's tree over it.
      per_stripe = n * point_bytes + kd_tree;
      break;
    case Method::kQuad:
      per_stripe = n * point_bytes + 4 * tree_nodes * 176;  // QuadTree::Node
      break;
    case Method::kSlamSort:
    case Method::kSlamSortRao:
    case Method::kSlamBucket:
    case Method::kSlamBucketRao: {
      // RAO's rule (core/rao.h) may sweep either axis, so its methods are
      // priced for max(X, Y) lines of max(X, Y) pixels, plus the block of
      // lines a stripe stores columns from.
      const bool rao = MethodIsRao(method);
      const int longer = std::max(width, height);
      const size_t x = CheckedSize(rao ? longer : width);
      const size_t lines = CheckedSize(rao ? longer : height);
      // The swept copy (an x and a y lane, 16 bytes per kept point) is made
      // once per call. While its pass runs, the key lane (one uint32 per
      // point) and the per-line counts (3L + 3 size_t: the key histogram and
      // the envelope sizes) live beside it; both are freed before any stripe
      // charges its arena (core/envelope.h OrderByReach).
      const size_t keys =
          n * sizeof(uint32_t) + (3 * lines + 3) * sizeof(size_t);
      // Each stripe's SweepArena (core/sweep_rows.cc): per point of its
      // widest envelope (at most n), the interval lanes (2 doubles) and the
      // bucket indices (2 int32), the envelope itself being read from the
      // copy; per pixel of a swept line, X + 1 buckets of quartic's 24
      // doubles (12 sums and 12 lo sums, the widest bucket — the
      // estimate takes no kernel) and qx, plus RAO's block of
      // kColumnBlockLines lines.
      const size_t pixel_doubles =
          1 + (rao ? CheckedSize(kColumnBlockLines) : size_t{0});
      const size_t arena =
          n * (sizeof(double) * 2 + sizeof(int32_t) * 2) +
          ((x + 1) * BucketStride(KernelType::kQuartic) + x * pixel_doubles) *
              sizeof(double);
      return n * point_bytes + std::max(keys, at_once * arena);
    }
  }
  // The baselines share one recentered copy of the points when the shift
  // applies; each stripe builds its own index.
  return (recentered ? n * point_bytes : 0) + at_once * per_stripe;
}

}  // namespace slam
