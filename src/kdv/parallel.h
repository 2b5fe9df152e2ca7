// Line-parallel KDV (the paper's "parallel/distributed methods" future-work
// axis, Section 5). Given the shared input, the swept lines are
// independent in every method here (Lemmas 1-5; RAO only picks their
// axis), so ComputeKdvParallel is ComputeKdv with its lines split: the
// engine's prologue runs once, then ParallelFor's stripes of the lines run
// on a thread pool, each writing its own lines of the one raster
// (kdv/engine.cc). The result is ComputeKdv's raster bit for bit.
//
// What each stripe still pays for itself: the SLAM methods copy and sort
// the points its lines can reach, and the index-based baselines build
// their index once per stripe.
#pragma once

#include "kdv/density_map.h"
#include "kdv/engine.h"
#include "kdv/task.h"
#include "util/result.h"

namespace slam {

struct ParallelOptions {
  /// <= 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  EngineOptions engine;
};

/// Computes ComputeKdv(task, method, options.engine)'s raster, bit for bit,
/// with its swept lines (rows, or columns when RAO sweeps columns) split
/// into stripes across a thread pool.
///
/// Concurrency contract (checked by clang -Wthread-safety over the
/// annotated primitives in util/mutex.h, and exercised under TSan by
/// tests/engine/parallel_stress_test.cc):
///  * stripes write disjoint lines of the shared raster, so raster
///    writes need no lock;
///  * failure aggregation is first-error-wins through a mutex-guarded
///    collector that also trips a stripe-local CancellationToken chained
///    to the caller's, so sibling stripes stop at their next line poll;
///  * the pool joins before the raster or status is read, so no stripe
///    thread outlives the call.
Result<DensityMap> ComputeKdvParallel(const KdvTask& task, Method method,
                                      const ParallelOptions& options = {});

}  // namespace slam
