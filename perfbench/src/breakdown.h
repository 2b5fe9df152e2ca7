// The traced decomposition of one engine compute. From outside the library
// it re-invokes the public calls a ComputeKdv(SLAM_BUCKET_RAO) call makes —
// the whole call, then its stages one by one on the same task — replays
// the five row passes, and times the sweep along the other axis, all under
// spans of one op. The per-layer engine, core and SIMD metrics are medians
// over the ops traced this way.
#pragma once

#include <cstdint>

#include "core/sweep_arena.h"
#include "kdv/engine.h"
#include "kdv/task.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// The method every workload renders with.
constexpr slam::Method kMethod = slam::Method::kSlamBucketRao;

/// Records, for op `op`:
///   kdv.compute                      ComputeKdv(task, SLAM_BUCKET_RAO)
///   kdv.stages                       the same compute, stage by stage:
///     kdv.validate                     ValidateTask
///     kdv.recenter                     TranslatedTask (far-from-origin only)
///     core.rao_in                      TransposedTask (Y > X only)
///     core.sweep                       ComputeSlamBucket on the prepared task
///     core.rao_out                     DensityMap::Transposed (Y > X only)
///   simd.replay                      the five passes (counters simd.*)
///   core.other_axis                  the sweep along the axis RAO did not pick
/// Any failing call is a benchmark error and returned.
slam::Status TraceCompute(const slam::KdvTask& task,
                          const slam::EngineOptions& engine, Tracer* tracer,
                          int64_t op, slam::SweepArena* replay_arena);

/// Derives the kdv.*, core.*, simd.* and trace.compute_coverage metrics
/// from the spans TraceCompute recorded.
void AddComputeMetrics(const Tracer& tracer, MetricValues* metrics);

/// The sum of the leaf stages TraceCompute attributes a compute to:
/// validate, recenter, rao_in, the five replayed passes and rao_out.
double AttributedStageMs(const Tracer& tracer, int64_t op);

}  // namespace perfbench
