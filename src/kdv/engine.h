// KdvEngine: single entry point over all ten KDV methods of the paper's
// Table 6. Once per call it validates the task, optionally recenters
// coordinates for floating-point conditioning, picks RAO's sweep axis and
// creates the density raster; then it runs the method over the raster's
// lines, handing the SLAM methods their points sorted along the swept axis
// (DESIGN.md §4 item 4). ComputeKdvParallel (kdv/parallel.h) is the same
// call with the lines split across threads.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/result.h"

namespace slam {

enum class Method : int {
  kScan = 0,
  kRqsKd = 1,
  kRqsBall = 2,
  kZorder = 3,
  kAkde = 4,
  kQuad = 5,
  kSlamSort = 6,
  kSlamBucket = 7,
  kSlamSortRao = 8,
  kSlamBucketRao = 9,
};

/// All methods, in the paper's Table 6 column order.
std::span<const Method> AllMethods();
/// The paper's exact methods (everything but Z-order and aKDE).
std::span<const Method> ExactMethods();

std::string_view MethodName(Method method);
Result<Method> MethodFromName(std::string_view name);
/// True for methods that return the exact density (Z-order and aKDE are
/// the approximate ones).
bool MethodIsExact(Method method);
/// True for the four SLAM variants.
bool MethodIsSlam(Method method);

struct EngineOptions {
  ComputeOptions compute;
  /// Translate points and grid so the viewport center sits at the origin
  /// before computing. Improves conditioning of the aggregate arithmetic
  /// when coordinates are large (e.g. projected meters with a far datum).
  /// The result is identical up to FP rounding. On by default; the shift
  /// is only applied when the viewport center's magnitude dwarfs its
  /// extent (TaskFarFromOrigin). The four SLAM methods always copy the
  /// points they can reach, sorted along the swept axis, and apply the
  /// shift in that copy; the other methods make one recentered copy per
  /// call only when the shift applies, so well-conditioned tasks stay
  /// copy-free.
  bool recenter_coordinates = true;
  /// Opt-in input sanitization: drop points with NaN/Inf coordinates (one
  /// O(n) copy, warning logged with the dropped count) instead of failing
  /// validation. Off by default — silent data loss should be a choice.
  bool sanitize = false;
};

/// Computes the density raster with the chosen method. Returns
/// InvalidArgument for unsupported kernel/method combinations (e.g. any
/// SLAM variant with the Gaussian kernel), Cancelled if the options'
/// ExecContext token is cancelled mid-computation, DeadlineExceeded if its
/// deadline expires, and ResourceExhausted if the method's estimated or
/// actual auxiliary space exceeds the context's memory budget.
///
/// Thread safety: ComputeKdv is a pure function of its arguments — it
/// mutates neither the task (points are a const span) nor the options, and
/// keeps all working state on the stack or in locals. Concurrent calls are
/// safe provided each call's options.compute.exec is either null or not
/// shared mutably: ExecContext itself is internally synchronized, so even a
/// shared context is safe; sharing one merely couples the callers'
/// cancellation/deadline/budget, which the serving core exploits on
/// purpose. This guarantee is what lets src/serve run one engine over many
/// concurrent requests without a lock around the compute path.
Result<DensityMap> ComputeKdv(const KdvTask& task, Method method,
                              const EngineOptions& options = {});

/// Analytic peak-auxiliary-space model of each method in bytes, excluding
/// the input points and the output raster (which all methods share —
/// Theorem 4's O(XY + n)). Backs the Figure 17 space experiment.
size_t EstimateAuxiliarySpaceBytes(Method method, size_t n, int width,
                                   int height);

}  // namespace slam
