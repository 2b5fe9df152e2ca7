// serve_open: independent users hitting one ServingCore. Poisson arrivals
// at a fixed rate are dispatched to 2 worker threads that call
// Handle; each request is timed from its scheduled send time, so a stall
// is charged to every request queued behind it. The dataset sits at
// EPSG:3857 magnitudes, so the engine recenters (copies all points) on
// every request, behind admission, the breaker, retry and the half-res
// degradation ladder.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "breakdown.h"
#include "kdv/bandwidth.h"
#include "oplog.h"
#include "serve/serving_core.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSide = 512;
// 0.05 of the paper's Los Angeles size: ~63k points.
constexpr double kScale = 0.05;
// Web-Mercator-sized coordinates (meters east/north of the datum).
constexpr double kShiftX = -1.3e7;
constexpr double kShiftY = 4.0e6;
constexpr int kWorkers = 2;
// Offered load, fixed once at about 15% of the 2-worker capacity (~20
// requests/s) of the commit that introduced the benchmark. At 9/s and
// 4.5/s the tail (p90) sat where requests start to queue behind one
// another and read either the unqueued or the queued latency from run to
// run of identical code, an interquartile spread of 22-25% of the median.
// At 3/s a few percent of requests queue, so the tail is a service-time
// percentile that a stall queueing many requests still moves. Admission,
// the breaker and the degrade ladder are on the path but, on the current
// code, never shed, trip or degrade at this rate.
constexpr double kRatePerSecond = 3.0;
constexpr double kDeadlineSeconds = 1.0;
// Sequential requests that end set-up; they also seed admission's latency
// estimate.
constexpr int kWarmupRequests = 8;
// Decompositions of the served compute after the traced phase. Every full
// answer renders the same task, so these stand for every request's.
constexpr int kComputeTraces = 5;
// A check runs on the dispatch thread only when the next send is at
// least this far off, so checking cannot make the generator late.
constexpr double kCheckSlackMs = 5.0;

slam::ServingOptions MakeOptions(double bandwidth) {
  slam::ServingOptions options;
  options.width_px = kSide;
  options.height_px = kSide;
  options.kernel = slam::KernelType::kEpanechnikov;
  options.bandwidth = bandwidth;
  options.method = kMethod;
  options.degrade_mode = slam::DegradeMode::kHalfRes;
  options.max_halvings = 2;
  options.admission.max_concurrent = kWorkers;
  return options;
}

struct Setup {
  slam::PointDataset data;
  std::unique_ptr<slam::ServingCore> core;
  SetupTiming timing;
};

slam::Status SetUp(uint64_t seed, Setup* setup) {
  SetupTiming& t = setup->timing;
  t.start = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      const slam::PointDataset city,
      SampleCity(slam::City::kLosAngeles, kScale, seed));
  std::vector<slam::Point> shifted(city.coords().begin(), city.coords().end());
  for (slam::Point& p : shifted) {
    p.x += kShiftX;
    p.y += kShiftY;
  }
  SLAM_ASSIGN_OR_RETURN(
      setup->data,
      slam::PointDataset::FromColumns(
          city.name(), std::move(shifted),
          {city.event_times().begin(), city.event_times().end()},
          {city.categories().begin(), city.categories().end()}));
  t.generated = Clock::now();
  SLAM_ASSIGN_OR_RETURN(const double bandwidth,
                        slam::ScottBandwidth(setup->data.coords()));
  t.bandwidth_picked = Clock::now();
  SLAM_ASSIGN_OR_RETURN(
      setup->core,
      slam::ServingCore::Create(setup->data, MakeOptions(bandwidth)));
  t.created = Clock::now();
  slam::RenderRequest request;
  request.deadline_seconds = kDeadlineSeconds;
  for (int i = 0; i < kWarmupRequests; ++i) {
    SLAM_ASSIGN_OR_RETURN(const slam::RenderResponse response,
                          setup->core->Handle(request));
    if (response.fidelity != slam::Fidelity::kFull) {
      return slam::Status::Internal("a warm-up request was degraded");
    }
  }
  t.warmed_up = Clock::now();
  return slam::Status::OK();
}

// Send times in [0, seconds): n = rate * seconds arrivals placed uniformly
// at random, which is a Poisson process conditioned on its count, so every
// seed offers exactly the same load.
std::vector<double> Schedule(double seconds, uint64_t seed) {
  const auto n = static_cast<size_t>(std::llround(kRatePerSecond * seconds));
  slam::Rng rng(seed);
  std::vector<double> at(n);
  for (double& s : at) s = rng.Uniform(0.0, seconds);
  std::sort(at.begin(), at.end());
  return at;
}

struct Answer {
  double latency_ms = 0.0;
  slam::DensityMap map;
};

class OpenLoop {
 public:
  OpenLoop(slam::ServingCore* core, const slam::DensityMap* reference)
      : core_(core), reference_(reference) {}

  /// Offers one schedule of `seconds` and returns once every request has
  /// been answered and checked: the seconds from the first possible send
  /// to the last answer.
  double RunPhase(double seconds, uint64_t seed, OpLog* log, Tracer* tracer) {
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<Clock::time_point> due;
    for (const double s : Schedule(seconds, seed)) {
      due.push_back(t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(s)));
    }
    {
      slam::MutexLock lock(&mutex_);
      due_ = due;
      last_done_ = t0;
      closed_ = false;
      log_ = log;
      tracer_ = tracer;
    }
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) workers.emplace_back([this] { Work(); });

    for (size_t i = 0; i < due.size(); ++i) {
      // Check answers as they arrive, so they do not pile up (and hold
      // memory) while the generator waits for the next send.
      const Clock::time_point check_until =
          due[i] - std::chrono::microseconds(
                       static_cast<int64_t>(kCheckSlackMs * 1e3));
      while (Clock::now() < check_until) {
        if (CheckOne()) continue;
        slam::MutexLock lock(&mutex_);
        if (answers_.empty()) {
          answer_cv_.WaitFor(mutex_,
                             MsBetween(Clock::now(), check_until) / 1e3);
        }
      }
      std::this_thread::sleep_until(due[i]);
      late_ms_.push_back(MsBetween(due[i], Clock::now()));
      slam::MutexLock lock(&mutex_);
      pending_.push_back(static_cast<int64_t>(i));
      work_cv_.Signal();
    }
    {
      slam::MutexLock lock(&mutex_);
      closed_ = true;
      work_cv_.SignalAll();
    }
    for (std::thread& worker : workers) worker.join();
    while (CheckOne()) {
    }
    offered_ += static_cast<int64_t>(due.size());
    offered_seconds_ += seconds;
    slam::MutexLock lock(&mutex_);
    return MsBetween(t0, last_done_) / 1e3;
  }

  double max_check_error() const { return max_check_error_; }
  const std::vector<double>& late_ms() const { return late_ms_; }
  double offered_per_s() const { return offered_ / offered_seconds_; }

 private:
  void Work() {
    for (;;) {
      int64_t id = 0;
      Clock::time_point due;
      OpLog* log = nullptr;
      Tracer* tracer = nullptr;
      {
        slam::MutexLock lock(&mutex_);
        while (pending_.empty() && !closed_) work_cv_.Wait(mutex_);
        if (pending_.empty()) return;
        id = pending_.front();
        pending_.pop_front();
        due = due_[static_cast<size_t>(id)];
        log = log_;
        tracer = tracer_;
      }
      Serve(id, due, log, tracer);
    }
  }

  void Serve(int64_t id, Clock::time_point due, OpLog* log, Tracer* tracer) {
    const Clock::time_point entry = Clock::now();
    const double remaining_s = kDeadlineSeconds - MsBetween(due, entry) / 1e3;
    if (remaining_s <= 0.0) {
      log->RecordFailure(OpFailure::kDeadline, MsBetween(due, entry));
      return;
    }
    slam::RenderRequest request;
    request.deadline_seconds = remaining_s;
    auto response = core_->Handle(request);
    const Clock::time_point done = Clock::now();
    const double latency_ms = MsBetween(due, done);
    {
      slam::MutexLock lock(&mutex_);
      last_done_ = std::max(last_done_, done);
    }
    if (tracer != nullptr) {
      const int64_t root = tracer->Record("op", id, due, done);
      tracer->Record("serve.wait", id, due, entry, root);
      tracer->Record("serve.handle", id, entry, done, root);
    }
    if (const auto failure = ServedFailure(response.status(), latency_ms,
                                           kDeadlineSeconds * 1e3)) {
      log->RecordFailure(*failure, latency_ms);
    } else if (response->fidelity != slam::Fidelity::kFull) {
      log->RecordSuccess(latency_ms, false);
    } else {
      if (tracer != nullptr) tracer->Count("serve.full", id, 1.0);
      slam::MutexLock lock(&mutex_);
      answers_.push_back({latency_ms, std::move(response->map)});
      answer_cv_.Signal();
    }
  }

  // Checks one queued full answer against the reference; false when none
  // was queued.
  bool CheckOne() {
    Answer answer;
    OpLog* log = nullptr;
    {
      slam::MutexLock lock(&mutex_);
      if (answers_.empty()) return false;
      answer = std::move(answers_.front());
      answers_.pop_front();
      log = log_;
    }
    max_check_error_ =
        std::max(max_check_error_, BookChecked(answer.map, *reference_,
                                               answer.latency_ms, log));
    return true;
  }

  slam::ServingCore* const core_;
  const slam::DensityMap* const reference_;

  slam::Mutex mutex_;
  slam::CondVar work_cv_;
  slam::CondVar answer_cv_;
  std::vector<Clock::time_point> due_ SLAM_GUARDED_BY(mutex_);
  std::deque<int64_t> pending_ SLAM_GUARDED_BY(mutex_);
  std::deque<Answer> answers_ SLAM_GUARDED_BY(mutex_);
  Clock::time_point last_done_ SLAM_GUARDED_BY(mutex_);
  bool closed_ SLAM_GUARDED_BY(mutex_) = false;
  OpLog* log_ SLAM_GUARDED_BY(mutex_) = nullptr;
  Tracer* tracer_ SLAM_GUARDED_BY(mutex_) = nullptr;

  // Dispatch thread only.
  std::vector<double> late_ms_;
  double max_check_error_ = 0.0;
  int64_t offered_ = 0;
  double offered_seconds_ = 0.0;
};

double Frac(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

slam::Result<RunResult> RunServeOpen(const RunOptions& options) {
  Tracer tracer(options.trace);
  const PhasePlan plan = PlanPhases(options);
  std::vector<SetupTiming> timings;
  // The first set-up is the one served; the later repeats only time
  // set-up and are dropped.
  Setup setup;
  std::optional<slam::KdvTask> served;
  std::optional<slam::DensityMap> reference;
  std::optional<OpenLoop> loop;
  slam::ServingStats stats_before;
  slam::BreakerStats breaker_before;
  OpLog untraced;
  double answered_s = 0.0;
  double peak_rss_mib = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Setup repeat;
    SLAM_RETURN_NOT_OK(SetUp(options.seed, r == 0 ? &setup : &repeat));
    timings.push_back(r == 0 ? setup.timing : repeat.timing);
    if (r == 0) {
      // The check's reference: SLAM_BUCKET on the scalar backend, on the
      // task every full-fidelity answer renders.
      SLAM_ASSIGN_OR_RETURN(
          const slam::Viewport viewport,
          slam::Viewport::Create(setup.data.Extent(), kSide, kSide));
      served = slam::MakeTask(setup.data, viewport,
                              slam::KernelType::kEpanechnikov,
                              setup.core->bandwidth());
      slam::EngineOptions scalar;
      scalar.compute.simd = slam::SimdLevel::kScalar;
      SLAM_ASSIGN_OR_RETURN(
          reference,
          slam::ComputeKdv(*served, slam::Method::kSlamBucket, scalar));
      loop.emplace(setup.core.get(), &*reference);
      stats_before = setup.core->stats();
      breaker_before = setup.core->breaker_stats();
    }
    if (r < kMeasuredSlices) {
      // The watermark covers the slice, not the set-up before it.
      ResetPeakRss();
      answered_s += loop->RunPhase(plan.slice_seconds(),
                                   options.seed * kSetupRepeats + r,
                                   &untraced, nullptr);
      peak_rss_mib = std::max(peak_rss_mib, PeakRssMiB());
    }
  }
  const double setup_s = SummarizeSetups(timings, "serve.create", &tracer);

  RunResult result;
  result.detail.Add("threads", kWorkers);
  result.detail.Add("points", static_cast<int64_t>(setup.data.size()));
  result.detail.Add("offered_per_s", kRatePerSecond);
  result.detail.Add("deadline_ms", kDeadlineSeconds * 1e3);
  if (!options.trace) {
    result.detail.Add("max_check_error", loop->max_check_error());
    AddEndToEnd(untraced, untraced.good() / answered_s,
                peak_rss_mib, setup_s, &result);
    return result;
  }

  OpLog traced;
  loop->RunPhase(plan.traced_seconds,
                 options.seed * kSetupRepeats + kMeasuredSlices, &traced,
                 &tracer);
  slam::SweepArena replay_arena;
  for (int r = 0; r < kComputeTraces; ++r) {
    SLAM_RETURN_NOT_OK(TraceCompute(*served, setup.core->options().engine,
                                    &tracer, -100 - r, &replay_arena));
  }
  result.detail.Add("max_check_error", loop->max_check_error());
  AddTracedPhases(untraced, traced, &result);

  MetricValues& m = result.metrics;
  AddSetupMetrics(tracer, &m);
  AddComputeMetrics(tracer, &m);
  std::vector<double> stage_ms;
  for (int r = 0; r < kComputeTraces; ++r) {
    stage_ms.push_back(AttributedStageMs(tracer, -100 - r));
  }
  const double attributed_compute_ms = Median(stage_ms);
  const auto op_ms = tracer.PerOpMs("op");
  const auto wait_ms = tracer.PerOpMs("serve.wait");
  const auto handle_ms = tracer.PerOpMs("serve.handle");
  std::vector<double> full_handle_ms, coverage;
  for (const auto& [op, full] : tracer.PerOpCount("serve.full")) {
    full_handle_ms.push_back(handle_ms.at(op));
    coverage.push_back((wait_ms.at(op) + attributed_compute_ms) /
                       op_ms.at(op));
  }
  m["serve.handle_ms"] = tracer.MedianMs("serve.handle");
  m["serve.wait_ms"] = tracer.MedianMs("serve.wait");
  m["serve.gate_self_ms"] =
      Median(full_handle_ms) - tracer.MedianMs("kdv.compute");
  m["trace.coverage"] = Median(coverage);

  const slam::ServingStats s = setup.core->stats();
  const int64_t requests = s.requests - stats_before.requests;
  m["serve.attempts_per_request"] =
      Frac(s.attempts - stats_before.attempts,
           (s.ok_full + s.ok_degraded) -
               (stats_before.ok_full + stats_before.ok_degraded));
  m["serve.degraded_frac"] =
      Frac(s.ok_degraded - stats_before.ok_degraded, requests);
  m["serve.shed_frac"] = Frac(s.shed - stats_before.shed, requests);
  m["serve.deadline_frac"] =
      Frac(s.deadline_exceeded - stats_before.deadline_exceeded, requests);
  m["serve.breaker_opened"] = static_cast<double>(
      setup.core->breaker_stats().opened - breaker_before.opened);

  std::vector<double> late = loop->late_ms();
  std::sort(late.begin(), late.end());
  m["load.offered_per_s"] = loop->offered_per_s();
  m["load.late_ms_p99"] =
      late.empty() ? 0.0
                   : late[static_cast<size_t>(
                         std::ceil(0.99 * static_cast<double>(late.size()))) -
                          1];
  m["load.late_ms_max"] = late.empty() ? 0.0 : late.back();
  result.detail.Add("traced_requests", static_cast<int64_t>(op_ms.size()));
  SLAM_RETURN_NOT_OK(tracer.WriteJsonLines(options.trace_path));
  return result;
}

}  // namespace perfbench
