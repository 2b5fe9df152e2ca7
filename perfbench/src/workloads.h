// The three workloads and what they share: run options, the repeated
// set-up timing, and the split of a traced run into an untraced and a
// traced phase.
#pragma once

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/generators.h"
#include "report.h"
#include "trace.h"
#include "util/result.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans and counters (JSON lines).
  std::string trace_path;
  /// Where a run keeps its temporary files (explore_tall's references).
  std::string work_dir = ".";
};

/// explore_tall: ExplorerSession on a tall 960x1280 view, closed loop.
slam::Result<RunResult> RunExploreTall(const RunOptions& options);
/// render_wide_mt: ComputeKdvParallel on 2 threads over ~217k points.
slam::Result<RunResult> RunRenderWideMt(const RunOptions& options);
/// serve_open: ServingCore under seeded Poisson arrivals, 2 workers.
slam::Result<RunResult> RunServeOpen(const RunOptions& options);

/// A workload's events, drawn from `seed`. The city itself (hotspot
/// layout, street lattice) is generated once at twice `scale` from a fixed
/// seed, as the paper's real cities are fixed; `seed` draws a uniform half
/// of its events. Redrawing the whole city per seed moved op latency by up
/// to 13% between seeds, which no bound could absorb.
slam::Result<slam::PointDataset> SampleCity(slam::City city, double scale,
                                            uint64_t seed);

/// Set-up is repeated kSetupRepeats times per run, spread over it: once
/// before the measured phase and once after each of its kSetupRepeats - 1
/// equal slices. setup_s is the median, so neither the cold first set-up
/// nor a few seconds of contention from other tenants of the host moves it.
constexpr int kSetupRepeats = 5;
constexpr int kMeasuredSlices = kSetupRepeats - 1;

/// One set-up (time to first answer), as consecutive stages: generate the
/// data, pick the bandwidth, create the serving object, warm up.
struct SetupTiming {
  Clock::time_point start;
  Clock::time_point generated;
  Clock::time_point bandwidth_picked;
  Clock::time_point created;
  Clock::time_point warmed_up;
};

/// Records each repeat's stages as spans (op = -1 - repeat; the create
/// stage under `create_span`) and returns the median total in seconds.
double SummarizeSetups(const std::vector<SetupTiming>& setups,
                       const char* create_span, Tracer* tracer);

/// How a run spends its --seconds: an untraced phase, cut into
/// kMeasuredSlices slices with a set-up repeat after each, and with --trace 1
/// a traced phase after it. A traced run measures a third of its time
/// untraced, so the same process yields both op_ms_p50 figures
/// trace.overhead_frac compares.
struct PhasePlan {
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  double slice_seconds() const { return untraced_seconds / kMeasuredSlices; }
};
PhasePlan PlanPhases(const RunOptions& options);

/// Moves the calling thread to the next CPU it may run on, round robin, and
/// restores its CPU mask when destroyed. On a virtual machine each vCPU
/// shares a host core with other tenants, and how much that slows it
/// changes over tens of seconds independently of the other vCPUs. A
/// single-threaded loop the scheduler leaves on one vCPU reads that vCPU's
/// state for a whole run; moving once per op averages over all of them, as
/// the two-thread workloads already do. Does nothing where the mask cannot
/// be read or set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Adds the per-layer setup metrics (medians over the set-up spans).
void AddSetupMetrics(const Tracer& tracer, MetricValues* metrics);

/// A traced run's op counts (both phases) and trace.overhead_frac: the
/// traced phase's op_ms_p50 over the untraced phase's, minus 1.
void AddTracedPhases(const OpLog& untraced, const OpLog& traced,
                     RunResult* result);

}  // namespace perfbench
