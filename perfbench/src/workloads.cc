#include "workloads.h"

#include "data/sampling.h"

namespace perfbench {

slam::Result<slam::PointDataset> SampleCity(slam::City city, double scale,
                                            uint64_t seed) {
  constexpr uint64_t kCitySeed = 42;
  SLAM_ASSIGN_OR_RETURN(const slam::PointDataset full,
                        slam::GenerateCityDataset(city, 2.0 * scale, kCitySeed));
  return slam::SampleFraction(full, 0.5, seed);
}

double SummarizeSetups(const std::vector<SetupTiming>& setups,
                       const char* create_span, Tracer* tracer) {
  std::vector<double> totals;
  for (size_t r = 0; r < setups.size(); ++r) {
    const SetupTiming& s = setups[r];
    const int64_t op = -1 - static_cast<int64_t>(r);
    const int64_t root = tracer->Record("setup", op, s.start, s.warmed_up);
    tracer->Record("data.generate", op, s.start, s.generated, root);
    tracer->Record("kdv.bandwidth", op, s.generated, s.bandwidth_picked, root);
    tracer->Record(create_span, op, s.bandwidth_picked, s.created, root);
    tracer->Record("setup.warmup", op, s.created, s.warmed_up, root);
    totals.push_back(MsBetween(s.start, s.warmed_up) / 1e3);
  }
  return Median(std::move(totals));
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  sched_setaffinity(0, sizeof(one), &one);
  next_ = (next_ + 1) % cpus_.size();
}

PhasePlan PlanPhases(const RunOptions& options) {
  PhasePlan plan;
  if (options.trace) {
    plan.untraced_seconds = options.seconds / 3.0;
    plan.traced_seconds = options.seconds - plan.untraced_seconds;
  } else {
    plan.untraced_seconds = options.seconds;
  }
  return plan;
}

void AddSetupMetrics(const Tracer& tracer, MetricValues* metrics) {
  (*metrics)["data.generate_ms"] = tracer.MedianMs("data.generate");
  (*metrics)["kdv.bandwidth_ms"] = tracer.MedianMs("kdv.bandwidth");
  (*metrics)["explore.create_ms"] = tracer.MedianMs("explore.create");
  (*metrics)["serve.create_ms"] = tracer.MedianMs("serve.create");
}

void AddTracedPhases(const OpLog& untraced, const OpLog& traced,
                     RunResult* result) {
  result->attempted = untraced.attempted() + traced.attempted();
  result->failed = untraced.failed() + traced.failed();
  result->correct = untraced.failed(OpFailure::kWrongRaster) == 0 &&
                    traced.failed(OpFailure::kWrongRaster) == 0;
  const auto untraced_p50 = untraced.MedianMs();
  const auto traced_p50 = traced.MedianMs();
  result->metrics["trace.overhead_frac"] =
      untraced_p50 && traced_p50
          ? std::optional<double>(*traced_p50 / *untraced_p50 - 1.0)
          : std::nullopt;
  result->detail.Add("untraced_op_ms_p50", untraced_p50);
  result->detail.Add("traced_op_ms_p50", traced_p50);
}

}  // namespace perfbench
