#include "breakdown.h"

#include <optional>
#include <string>
#include <vector>

#include "core/rao.h"
#include "core/slam_bucket.h"
#include "replay.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string PassMetric(int pass) {
  return std::string("simd.") + kPassNames[static_cast<size_t>(pass)] + "_ms";
}

double At(const std::map<int64_t, double>& per_op, int64_t op) {
  const auto it = per_op.find(op);
  return it == per_op.end() ? 0.0 : it->second;
}

}  // namespace

slam::Status TraceCompute(const slam::KdvTask& task,
                          const slam::EngineOptions& engine, Tracer* tracer,
                          int64_t op, slam::SweepArena* replay_arena) {
  {
    ScopedSpan span(tracer, "kdv.compute", op);
    SLAM_RETURN_NOT_OK(slam::ComputeKdv(task, kMethod, engine).status());
  }

  slam::ComputeOptions compute = engine.compute;
  SLAM_ASSIGN_OR_RETURN(compute.simd, slam::ResolveSimdLevel(compute.simd));
  std::optional<slam::TranslatedTask> recentered;
  std::optional<slam::TransposedTask> transposed;
  const slam::KdvTask* swept = &task;
  slam::DensityMap swept_map;
  {
    ScopedSpan stages(tracer, "kdv.stages", op);
    {
      ScopedSpan span(tracer, "kdv.validate", op, stages.id());
      SLAM_RETURN_NOT_OK(slam::ValidateTask(task));
    }
    if (engine.recenter_coordinates && slam::TaskFarFromOrigin(task)) {
      // The engine's recenter point: the grid's middle pixel.
      ScopedSpan span(tracer, "kdv.recenter", op, stages.id());
      const slam::Grid& grid = task.grid;
      recentered.emplace(task, grid.x_axis().Coord(grid.width() / 2),
                         grid.y_axis().Coord(grid.height() / 2));
      swept = &recentered->task();
    }
    if (slam::RaoWouldTranspose(*swept)) {
      ScopedSpan span(tracer, "core.rao_in", op, stages.id());
      transposed.emplace(*swept);
      swept = &transposed->task();
    }
    {
      ScopedSpan span(tracer, "core.sweep", op, stages.id());
      SLAM_RETURN_NOT_OK(slam::ComputeSlamBucket(*swept, compute, &swept_map));
    }
    if (transposed) {
      ScopedSpan span(tracer, "core.rao_out", op, stages.id());
      (void)swept_map.Transposed();
    }
  }
  tracer->Count("core.arena_heap_bytes", op,
                static_cast<double>(slam::ThreadSweepArenaForTest().HeapBytes()));

  {
    ScopedSpan span(tracer, "simd.replay", op);
    slam::DensityMap replayed;
    SLAM_ASSIGN_OR_RETURN(
        const ReplayStats stats,
        ReplaySweep(*swept, compute, replay_arena, &replayed));
    for (int p = 0; p < kPassCount; ++p) {
      tracer->Count(PassMetric(p), op, stats.pass_ms[static_cast<size_t>(p)],
                    span.id());
    }
    tracer->Count("simd.lines", op, static_cast<double>(stats.lines), span.id());
    tracer->Count("simd.envelope_points_sum", op,
                  static_cast<double>(stats.envelope_points_sum), span.id());
    tracer->Count("simd.envelope_points_max", op,
                  static_cast<double>(stats.envelope_points_max), span.id());
    tracer->Count("simd.points_scanned", op,
                  static_cast<double>(stats.lines) *
                      static_cast<double>(swept->points.size()),
                  span.id());
    tracer->Count("simd.endpoints", op, static_cast<double>(stats.endpoints),
                  span.id());
    tracer->Count("simd.parked_endpoints", op,
                  static_cast<double>(stats.parked_endpoints), span.id());
    tracer->Count("simd.replay_exact", op,
                  BitIdentical(replayed, swept_map) ? 1.0 : 0.0, span.id());
  }

  {
    // RAO picked the shorter axis; the other axis is the plain row sweep
    // when RAO transposed, and a transposed sweep when it did not.
    ScopedSpan span(tracer, "core.other_axis", op);
    if (slam::RaoWouldTranspose(task)) {
      SLAM_RETURN_NOT_OK(
          slam::ComputeKdv(task, slam::Method::kSlamBucket, engine).status());
    } else {
      const slam::TransposedTask columns(task);
      SLAM_ASSIGN_OR_RETURN(
          const slam::DensityMap map,
          slam::ComputeKdv(columns.task(), slam::Method::kSlamBucket, engine));
      (void)map.Transposed();
    }
  }
  return slam::Status::OK();
}

double AttributedStageMs(const Tracer& tracer, int64_t op) {
  double ms = At(tracer.PerOpMs("kdv.validate"), op) +
              At(tracer.PerOpMs("kdv.recenter"), op) +
              At(tracer.PerOpMs("core.rao_in"), op) +
              At(tracer.PerOpMs("core.rao_out"), op);
  for (int p = 0; p < kPassCount; ++p) {
    ms += At(tracer.PerOpCount(PassMetric(p)), op);
  }
  return ms;
}

void AddComputeMetrics(const Tracer& tracer, MetricValues* metrics) {
  MetricValues& m = *metrics;
  const auto compute = tracer.PerOpMs("kdv.compute");
  const auto validate = tracer.PerOpMs("kdv.validate");
  const auto recenter = tracer.PerOpMs("kdv.recenter");
  const auto rao_in = tracer.PerOpMs("core.rao_in");
  const auto sweep = tracer.PerOpMs("core.sweep");
  const auto rao_out = tracer.PerOpMs("core.rao_out");
  const auto other_axis = tracer.PerOpMs("core.other_axis");
  const auto exact = tracer.PerOpCount("simd.replay_exact");
  const auto points_sum = tracer.PerOpCount("simd.envelope_points_sum");
  const auto scanned = tracer.PerOpCount("simd.points_scanned");
  const auto endpoints = tracer.PerOpCount("simd.endpoints");
  const auto parked = tracer.PerOpCount("simd.parked_endpoints");
  std::vector<std::map<int64_t, double>> passes;
  for (int p = 0; p < kPassCount; ++p) {
    passes.push_back(tracer.PerOpCount(PassMetric(p)));
  }

  bool all_exact = !exact.empty();
  std::vector<double> prologue_self, rao_speedup, hit_ratio, parked_ratio,
      replay_coverage, compute_coverage;
  for (const auto& [op, compute_ms] : compute) {
    all_exact = all_exact && At(exact, op) == 1.0;
    const double parts = At(validate, op) + At(recenter, op) +
                         At(rao_in, op) + At(sweep, op) + At(rao_out, op);
    prologue_self.push_back(compute_ms - parts);
    rao_speedup.push_back(At(other_axis, op) / compute_ms);
    hit_ratio.push_back(At(points_sum, op) / At(scanned, op));
    parked_ratio.push_back(At(parked, op) / At(endpoints, op));
    double pass_ms = 0.0;
    for (const auto& pass : passes) pass_ms += At(pass, op);
    replay_coverage.push_back(pass_ms / At(sweep, op));
    compute_coverage.push_back(AttributedStageMs(tracer, op) / compute_ms);
  }

  m["kdv.compute_ms"] = tracer.MedianMs("kdv.compute");
  m["kdv.validate_ms"] = tracer.MedianMs("kdv.validate");
  m["kdv.recenter_ms"] = tracer.MedianMs("kdv.recenter");
  m["kdv.prologue_self_ms"] = Median(prologue_self);
  m["core.rao_in_ms"] = tracer.MedianMs("core.rao_in");
  m["core.rao_out_ms"] = tracer.MedianMs("core.rao_out");
  m["core.sweep_ms"] = tracer.MedianMs("core.sweep");
  m["core.rao_speedup"] = Median(rao_speedup);
  m["core.arena_heap_mib"] = tracer.MedianCount("core.arena_heap_bytes") / kMiB;
  // Pass timings from a replay that did not reproduce the library's raster
  // would describe some other computation: report them as unmeasured.
  for (int p = 0; p < kPassCount; ++p) {
    m[PassMetric(p)] = all_exact ? std::optional<double>(
                                       tracer.MedianCount(PassMetric(p)))
                                 : std::nullopt;
  }
  m["simd.replay_coverage"] =
      all_exact ? std::optional<double>(Median(replay_coverage)) : std::nullopt;
  m["trace.compute_coverage"] =
      all_exact ? std::optional<double>(Median(compute_coverage))
                : std::nullopt;
  m["simd.lines"] = tracer.MedianCount("simd.lines");
  m["simd.envelope_points_sum"] =
      tracer.MedianCount("simd.envelope_points_sum");
  m["simd.envelope_points_max"] =
      tracer.MedianCount("simd.envelope_points_max");
  m["simd.envelope_hit_ratio"] = Median(hit_ratio);
  m["simd.parked_endpoint_ratio"] = Median(parked_ratio);
}

}  // namespace perfbench
