// explore_tall: one user exploring a tall city. A closed loop steps an
// ExplorerSession through a fixed zoom/pan cycle at 960x1280 (the paper's
// 1280x960 pixel count in portrait) and renders each view with
// RenderAdaptive. Y > X, so SLAM_BUCKET_RAO transposes in and out on
// every op, and zoomed views park many endpoints past the last pixel.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "breakdown.h"
#include "explore/session.h"
#include "kdv/bandwidth.h"
#include "kdv/density_io.h"
#include "oplog.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kWidth = 960;
constexpr int kHeight = 1280;
// 0.05 of the paper's Seattle size: ~43k points.
constexpr double kScale = 0.05;
// Renders of the initial view that end set-up (time to first answer).
constexpr int kWarmupRenders = 3;

// One step of the view cycle: a zoom (ratio > 0) or a pan by a fraction
// of the view. Six steps return to the starting view up to rounding.
struct ViewStep {
  double zoom = 0.0;
  double pan_x = 0.0;
  double pan_y = 0.0;
};
constexpr ViewStep kCycle[] = {
    {0.7, 0.0, 0.0},       {0.0, 0.2, 0.2},  {1.0 / 0.7, 0.0, 0.0},
    {0.7, 0.0, 0.0},       {0.0, -0.2, -0.2}, {1.0 / 0.7, 0.0, 0.0},
};
constexpr int64_t kCycleLength = sizeof(kCycle) / sizeof(kCycle[0]);

slam::Status ApplyStep(slam::ExplorerSession* session, int64_t op) {
  const ViewStep& step = kCycle[op % kCycleLength];
  return step.zoom > 0.0 ? session->Zoom(step.zoom)
                         : session->Pan(step.pan_x, step.pan_y);
}

slam::SessionConfig MakeConfig(double bandwidth) {
  slam::SessionConfig config;
  config.width_px = kWidth;
  config.height_px = kHeight;
  config.kernel = slam::KernelType::kEpanechnikov;
  config.bandwidth = bandwidth;
  config.method = kMethod;
  return config;
}

struct Setup {
  std::optional<slam::ExplorerSession> session;
  SetupTiming timing;
};

slam::Result<Setup> SetUp(uint64_t seed) {
  Setup setup;
  SetupTiming& t = setup.timing;
  t.start = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      slam::PointDataset data,
      SampleCity(slam::City::kSeattle, kScale, seed));
  t.generated = Clock::now();
  SLAM_ASSIGN_OR_RETURN(const double bandwidth,
                        slam::ScottBandwidth(data.coords()));
  t.bandwidth_picked = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      slam::ExplorerSession session,
      slam::ExplorerSession::Create(std::move(data), MakeConfig(bandwidth)));
  t.created = Clock::now();
  for (int i = 0; i < kWarmupRenders; ++i) {
    SLAM_RETURN_NOT_OK(session.RenderAdaptive().status());
  }
  t.warmed_up = Clock::now();
  setup.session.emplace(std::move(session));
  return setup;
}

// The check's reference: SLAM_BUCKET on the scalar backend, on the task
// the session renders.
slam::Result<slam::DensityMap> Reference(const slam::ExplorerSession& s) {
  slam::EngineOptions engine;
  engine.compute.simd = slam::SimdLevel::kScalar;
  return slam::ComputeKdv(
      slam::MakeTask(s.active_data(), s.viewport(), s.kernel(), s.bandwidth()),
      slam::Method::kSlamBucket, engine);
}

class Explorer {
 public:
  Explorer(slam::ExplorerSession session, std::string work_dir)
      : start_(session),
        session_(std::move(session)),
        work_dir_(std::move(work_dir)) {}
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;
  ~Explorer() {
    for (int64_t step = 0; step < kCycleLength; ++step) {
      if (reference_saved_[step]) std::remove(ReferencePath(step).c_str());
    }
  }

  /// Runs ops back to back for `seconds`, each on the next CPU of
  /// `rotation`, checking each view outside the timed region; with a
  /// tracer, re-invokes each op's calls afterwards.
  slam::Status RunPhase(double seconds, CpuRotation* rotation, OpLog* log,
                        Tracer* tracer) {
    std::optional<slam::ExplorerSession> shadow;
    if (tracer != nullptr) shadow.emplace(session_);
    const Clock::time_point phase_start = Clock::now();
    while (MsBetween(phase_start, Clock::now()) < seconds * 1e3) {
      // Each cycle starts from the set-up view exactly, so the cycle's
      // views repeat bit for bit and each one's reference is computed once.
      const int64_t step = next_op_ % kCycleLength;
      if (step == 0) {
        session_ = start_;
        if (shadow) shadow = start_;
      }
      rotation->Next();
      ResetPeakRss();
      const Clock::time_point t0 = Clock::now();
      const slam::Status stepped = ApplyStep(&session_, next_op_);
      auto outcome = stepped.ok() ? session_.RenderAdaptive()
                                  : slam::Result<slam::RenderOutcome>(stepped);
      const Clock::time_point t1 = Clock::now();
      peak_rss_mib_ = std::max(peak_rss_mib_, PeakRssMiB());

      if (!outcome.ok()) {
        log->RecordFailure(OpFailure::kStatus, MsBetween(t0, t1));
      } else if (outcome->fidelity != slam::Fidelity::kFull) {
        log->RecordSuccess(MsBetween(t0, t1), false);
      } else {
        SLAM_ASSIGN_OR_RETURN(const slam::DensityMap reference,
                              ReferenceFor(step));
        max_check_error_ =
            std::max(max_check_error_, BookChecked(outcome->map, reference,
                                                   MsBetween(t0, t1), log));
      }
      if (tracer != nullptr) {
        SLAM_RETURN_NOT_OK(TraceOp(next_op_, &*shadow, tracer));
      }
      ++next_op_;
    }
    return slam::Status::OK();
  }

  double peak_rss_mib() const { return peak_rss_mib_; }
  double max_check_error() const { return max_check_error_; }

 private:
  // The reference of the cycle's `step`-th view, the session's current
  // one. It is computed once and kept on disk rather than in memory, so
  // six cached rasters do not add to the peak RSS the run reports.
  slam::Result<slam::DensityMap> ReferenceFor(int64_t step) {
    if (reference_saved_[step]) {
      return slam::LoadDensityMap(ReferencePath(step));
    }
    SLAM_ASSIGN_OR_RETURN(slam::DensityMap reference, Reference(session_));
    SLAM_RETURN_NOT_OK(slam::SaveDensityMap(reference, ReferencePath(step)));
    reference_saved_[step] = true;
    return reference;
  }

  std::string ReferencePath(int64_t step) const {
    return work_dir_ + "/explore-reference-" + std::to_string(getpid()) +
           "-" + std::to_string(step) + ".sldm";
  }

  // Replays op `op` on the shadow session (kept in step with the measured
  // one), then decomposes the compute its render made.
  slam::Status TraceOp(int64_t op, slam::ExplorerSession* shadow,
                       Tracer* tracer) {
    {
      ScopedSpan root(tracer, "op", op);
      {
        ScopedSpan span(tracer, "explore.view_op", op, root.id());
        SLAM_RETURN_NOT_OK(ApplyStep(shadow, op));
      }
      ScopedSpan span(tracer, "explore.render", op, root.id());
      SLAM_RETURN_NOT_OK(shadow->RenderAdaptive().status());
    }
    const slam::KdvTask task =
        slam::MakeTask(shadow->active_data(), shadow->viewport(),
                       shadow->kernel(), shadow->bandwidth());
    return TraceCompute(task, slam::EngineOptions(), tracer, op,
                        &replay_arena_);
  }

  const slam::ExplorerSession start_;
  slam::ExplorerSession session_;
  const std::string work_dir_;
  bool reference_saved_[kCycleLength] = {};
  slam::SweepArena replay_arena_;
  int64_t next_op_ = 0;
  double peak_rss_mib_ = 0.0;
  double max_check_error_ = 0.0;
};

}  // namespace

slam::Result<RunResult> RunExploreTall(const RunOptions& options) {
  Tracer tracer(options.trace);
  const PhasePlan plan = PlanPhases(options);
  std::vector<SetupTiming> timings;
  std::optional<Explorer> explorer;
  // One client thread: set-ups and ops rotate over the CPUs (see
  // CpuRotation).
  CpuRotation rotation;
  OpLog untraced;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rotation.Next();
    SLAM_ASSIGN_OR_RETURN(Setup setup, SetUp(options.seed));
    timings.push_back(setup.timing);
    if (!explorer) {
      explorer.emplace(std::move(*setup.session), options.work_dir);
    }
    if (r < kMeasuredSlices) {
      SLAM_RETURN_NOT_OK(explorer->RunPhase(plan.slice_seconds(), &rotation,
                                            &untraced, /*tracer=*/nullptr));
    }
  }
  const double setup_s = SummarizeSetups(timings, "explore.create", &tracer);

  RunResult result;
  if (!options.trace) {
    result.detail.Add("max_check_error", explorer->max_check_error());
    AddEndToEnd(untraced, untraced.ClosedLoopGoodput(),
                explorer->peak_rss_mib(), setup_s, &result);
    return result;
  }

  OpLog traced;
  SLAM_RETURN_NOT_OK(
      explorer->RunPhase(plan.traced_seconds, &rotation, &traced, &tracer));
  result.detail.Add("max_check_error", explorer->max_check_error());
  AddTracedPhases(untraced, traced, &result);

  MetricValues& m = result.metrics;
  AddSetupMetrics(tracer, &m);
  AddComputeMetrics(tracer, &m);
  m["explore.view_op_us"] = tracer.MedianMs("explore.view_op") * 1e3;
  m["explore.render_ms"] = tracer.MedianMs("explore.render");
  // The op's attributed share: the view op plus the compute's leaf stages,
  // over the re-invoked op.
  const auto op_ms = tracer.PerOpMs("op");
  const auto view_ms = tracer.PerOpMs("explore.view_op");
  std::vector<double> coverage;
  for (const auto& [op, ms] : op_ms) {
    coverage.push_back((view_ms.at(op) + AttributedStageMs(tracer, op)) / ms);
  }
  m["trace.coverage"] = Median(std::move(coverage));
  result.detail.Add("traced_ops", static_cast<int64_t>(op_ms.size()));
  SLAM_RETURN_NOT_OK(tracer.WriteJsonLines(options.trace_path));
  return result;
}

}  // namespace perfbench
