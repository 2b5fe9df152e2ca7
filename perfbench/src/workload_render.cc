// render_wide_mt: one caller re-rendering a big, landscape dataset with
// the row-parallel wrapper. San Francisco at ~217k points on 640x480, so
// pass 1 scans n points for each of 480 lines and RAO does not transpose;
// each op is one ComputeKdvParallel call on 2 worker threads, the only
// workload on the stripe path.
#include <algorithm>
#include <optional>

#include "breakdown.h"
#include "geom/viewport.h"
#include "kdv/bandwidth.h"
#include "kdv/parallel.h"
#include "oplog.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kWidth = 640;
constexpr int kHeight = 480;
// 0.05 of the paper's San Francisco size: ~217k points.
constexpr double kScale = 0.05;
constexpr int kThreads = 2;
constexpr int kWarmupRenders = 3;

struct Setup {
  slam::PointDataset data;
  slam::KdvTask task;  // points view into `data`
  SetupTiming timing;
};

slam::ParallelOptions Parallel() {
  slam::ParallelOptions options;
  options.num_threads = kThreads;
  return options;
}

slam::Status SetUp(uint64_t seed, Setup* setup) {
  SetupTiming& t = setup->timing;
  t.start = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      setup->data,
      SampleCity(slam::City::kSanFrancisco, kScale, seed));
  t.generated = Clock::now();
  SLAM_ASSIGN_OR_RETURN(const double bandwidth,
                        slam::ScottBandwidth(setup->data.coords()));
  t.bandwidth_picked = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      const slam::Viewport viewport,
      slam::Viewport::Create(setup->data.Extent(), kWidth, kHeight));
  setup->task = slam::MakeTask(setup->data, viewport,
                               slam::KernelType::kEpanechnikov, bandwidth);
  t.created = Clock::now();
  for (int i = 0; i < kWarmupRenders; ++i) {
    SLAM_RETURN_NOT_OK(
        slam::ComputeKdvParallel(setup->task, kMethod, Parallel()).status());
  }
  t.warmed_up = Clock::now();
  return slam::Status::OK();
}

// The stripes ComputeKdvParallel cuts (util/thread_pool.cc ParallelFor:
// about two chunks per worker), as [begin, end) row ranges.
std::vector<std::pair<int, int>> Stripes(int rows) {
  const int chunks = std::min(rows, 2 * kThreads);
  const int chunk = (rows + chunks - 1) / chunks;
  std::vector<std::pair<int, int>> stripes;
  for (int lo = 0; lo < rows; lo += chunk) {
    stripes.emplace_back(lo, std::min(rows, lo + chunk));
  }
  return stripes;
}

// Re-invokes op `op`: the parallel call, the serial compute's breakdown,
// and each stripe's compute on its own, whose list-scheduled makespan on
// kThreads workers is the op's attributed critical path.
slam::Status TraceOp(const slam::KdvTask& task, int64_t op, Tracer* tracer,
                     slam::SweepArena* replay_arena) {
  {
    ScopedSpan root(tracer, "op", op);
    ScopedSpan span(tracer, "parallel.op", op, root.id());
    SLAM_RETURN_NOT_OK(
        slam::ComputeKdvParallel(task, kMethod, Parallel()).status());
  }
  SLAM_RETURN_NOT_OK(
      TraceCompute(task, slam::EngineOptions(), tracer, op, replay_arena));
  std::vector<double> busy_until(kThreads, 0.0);
  for (const auto& [begin, end] : Stripes(task.grid.height())) {
    slam::KdvTask stripe = task;
    slam::GridAxis y = task.grid.y_axis();
    y.origin = y.Coord(begin);
    y.count = end - begin;
    SLAM_ASSIGN_OR_RETURN(stripe.grid,
                          slam::Grid::Create(task.grid.x_axis(), y));
    const Clock::time_point t0 = Clock::now();
    SLAM_RETURN_NOT_OK(slam::ComputeKdv(stripe, kMethod).status());
    const Clock::time_point t1 = Clock::now();
    tracer->Record("parallel.stripe", op, t0, t1);
    *std::min_element(busy_until.begin(), busy_until.end()) +=
        MsBetween(t0, t1);
  }
  tracer->Count("parallel.critical_path_ms", op,
                *std::max_element(busy_until.begin(), busy_until.end()));
  return slam::Status::OK();
}

struct Phase {
  double peak_rss_mib = 0.0;
  double max_check_error = 0.0;
};

slam::Status RunPhase(const slam::KdvTask& task,
                      const slam::DensityMap& reference, double seconds,
                      int64_t* next_op, OpLog* log, Phase* phase,
                      Tracer* tracer, slam::SweepArena* replay_arena) {
  const Clock::time_point phase_start = Clock::now();
  while (MsBetween(phase_start, Clock::now()) < seconds * 1e3) {
    ResetPeakRss();
    const Clock::time_point t0 = Clock::now();
    const auto map = slam::ComputeKdvParallel(task, kMethod, Parallel());
    const Clock::time_point t1 = Clock::now();
    phase->peak_rss_mib = std::max(phase->peak_rss_mib, PeakRssMiB());
    if (!map.ok()) {
      log->RecordFailure(OpFailure::kStatus, MsBetween(t0, t1));
    } else {
      phase->max_check_error =
          std::max(phase->max_check_error,
                   BookChecked(*map, reference, MsBetween(t0, t1), log));
    }
    if (tracer != nullptr) {
      SLAM_RETURN_NOT_OK(TraceOp(task, *next_op, tracer, replay_arena));
    }
    ++*next_op;
  }
  return slam::Status::OK();
}

}  // namespace

slam::Result<RunResult> RunRenderWideMt(const RunOptions& options) {
  Tracer tracer(options.trace);
  const PhasePlan plan = PlanPhases(options);
  std::vector<SetupTiming> timings;
  // The first set-up is the one measured; the later repeats only time
  // set-up and are dropped.
  Setup setup;
  std::optional<slam::DensityMap> reference;
  slam::SweepArena replay_arena;
  int64_t next_op = 0;
  OpLog untraced;
  Phase phase;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Setup repeat;
    SLAM_RETURN_NOT_OK(SetUp(options.seed, r == 0 ? &setup : &repeat));
    timings.push_back(r == 0 ? setup.timing : repeat.timing);
    if (!reference) {
      // The check's reference: the serial engine on the same task.
      SLAM_ASSIGN_OR_RETURN(reference, slam::ComputeKdv(setup.task, kMethod));
    }
    if (r < kMeasuredSlices) {
      SLAM_RETURN_NOT_OK(RunPhase(setup.task, *reference,
                                  plan.slice_seconds(), &next_op, &untraced,
                                  &phase, nullptr, &replay_arena));
    }
  }
  const double setup_s = SummarizeSetups(timings, "render.create", &tracer);

  RunResult result;
  result.detail.Add("threads", kThreads);
  result.detail.Add("points", static_cast<int64_t>(setup.data.size()));
  if (!options.trace) {
    result.detail.Add("max_check_error", phase.max_check_error);
    AddEndToEnd(untraced, untraced.ClosedLoopGoodput(), phase.peak_rss_mib,
                setup_s, &result);
    return result;
  }

  OpLog traced;
  SLAM_RETURN_NOT_OK(RunPhase(setup.task, *reference, plan.traced_seconds,
                              &next_op, &traced, &phase, &tracer,
                              &replay_arena));
  result.detail.Add("max_check_error", phase.max_check_error);
  AddTracedPhases(untraced, traced, &result);

  MetricValues& m = result.metrics;
  AddSetupMetrics(tracer, &m);
  AddComputeMetrics(tracer, &m);
  const auto parallel_ms = tracer.PerOpMs("parallel.op");
  const auto serial_ms = tracer.PerOpMs("kdv.compute");
  const auto critical_ms = tracer.PerOpCount("parallel.critical_path_ms");
  std::vector<double> speedup, coverage;
  for (const auto& [op, ms] : parallel_ms) {
    speedup.push_back(serial_ms.at(op) / ms);
    coverage.push_back(critical_ms.at(op) / ms);
  }
  m["parallel.serial_ms"] = tracer.MedianMs("kdv.compute");
  m["parallel.speedup"] = Median(speedup);
  m["parallel.efficiency"] = Median(speedup) / kThreads;
  m["trace.coverage"] = Median(coverage);
  result.detail.Add("traced_ops", static_cast<int64_t>(parallel_ms.size()));
  SLAM_RETURN_NOT_OK(tracer.WriteJsonLines(options.trace_path));
  return result;
}

}  // namespace perfbench
