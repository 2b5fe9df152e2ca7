// Cancellation / deadline / memory-budget completeness: every method in
// AllMethods() must honour the ExecContext within one pixel row of work.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "kdv/engine.h"
#include "kdv/parallel.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

using testing::ClusteredPoints;
using testing::MakeGrid;

class CancellationTest : public ::testing::TestWithParam<Method> {
 protected:
  // 36 x 48 raster (height > width) so the RAO variants transpose; enough
  // points that every method passes through its row loop many times.
  // The points live in the fixture: KdvTask only holds a span over them.
  KdvTask MakeCancellableTask() {
    points_ = ClusteredPoints(3000, 50.0, 3, 617);
    KdvTask task;
    task.points = points_;
    task.kernel = KernelType::kEpanechnikov;
    task.bandwidth = 8.0;
    task.weight = 1.0 / 3000.0;
    task.grid = MakeGrid(36, 48, 50.0);
    return task;
  }

 private:
  std::vector<Point> points_;
};

TEST_P(CancellationTest, PreCancelledTokenStopsBeforeAnyWork) {
  const KdvTask task = MakeCancellableTask();
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, GetParam(), opts);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << MethodName(GetParam());
}

TEST_P(CancellationTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  const KdvTask task = MakeCancellableTask();
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, GetParam(), opts);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << MethodName(GetParam());
}

TEST_P(CancellationTest, NonPositiveDeadlineFailsFastBeforeAnyWork) {
  // Zero and negative budgets are deadlines that have ALREADY passed.
  // Every method must reject them at its entry checkpoint: the fault
  // injector's global hit count proves no per-row checkpoint was ever
  // reached, i.e. no sweep work started.
  const KdvTask task = MakeCancellableTask();
  for (const double budget : {0.0, -1.0, -1e9}) {
    const Deadline expired(budget);
    FaultInjector injector;  // armed with nothing: pure hit counter
    ExecContext exec;
    exec.set_deadline(&expired);
    exec.set_fault_injector(&injector);
    EngineOptions opts;
    opts.compute.exec = &exec;
    const auto result = ComputeKdv(task, GetParam(), opts);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << MethodName(GetParam()) << " budget=" << budget;
    EXPECT_LE(injector.HitCount("*"), 1)
        << MethodName(GetParam()) << " budget=" << budget
        << " did work past the entry checkpoint";
  }
}

TEST_P(CancellationTest, MidRunCancellationStopsWithinOneRow) {
  const KdvTask task = MakeCancellableTask();
  // Let 10 checkpoints pass, then trip every later one. If the method kept
  // sweeping after the trip, the global hit count would keep growing: a
  // small post-trip count proves the error propagated within one row.
  constexpr int64_t kPassedHits = 10;
  FaultInjector injector;
  injector.Arm("*", kPassedHits, Status::Cancelled("injected mid-run"));
  ExecContext exec;
  exec.set_fault_injector(&injector);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, GetParam(), opts);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << MethodName(GetParam());
  EXPECT_LE(injector.HitCount("*"), kPassedHits + 3)
      << MethodName(GetParam())
      << " kept hitting checkpoints after the trip";
}

TEST_P(CancellationTest, BudgetBelowEstimateIsResourceExhausted) {
  const KdvTask task = MakeCancellableTask();
  const Method method = GetParam();
  const size_t estimate = EstimateAuxiliarySpaceBytes(
      method, task.points.size(), task.grid.width(), task.grid.height(), 1,
      false);
  if (estimate == 0) {
    // SCAN needs no auxiliary space; any budget is enough.
    MemoryBudget budget(0);
    ExecContext exec;
    exec.set_memory_budget(&budget);
    EngineOptions opts;
    opts.compute.exec = &exec;
    EXPECT_TRUE(ComputeKdv(task, method, opts).ok()) << MethodName(method);
    return;
  }
  MemoryBudget budget(estimate / 2);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, method, opts);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << MethodName(method);
  EXPECT_EQ(budget.used_bytes(), 0u)
      << MethodName(method) << " leaked a budget charge on failure";
}

TEST_P(CancellationTest, AmpleBudgetSucceedsAndReleasesEverything) {
  const KdvTask task = MakeCancellableTask();
  const Method method = GetParam();
  MemoryBudget budget(size_t{64} << 20);  // 64 MiB: plenty for 3000 points
  ExecContext exec;
  exec.set_memory_budget(&budget);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, method, opts);
  ASSERT_TRUE(result.ok()) << MethodName(method) << ": "
                           << result.status().ToString();
  EXPECT_EQ(budget.used_bytes(), 0u)
      << MethodName(method) << " did not release its workspace charges";
  if (EstimateAuxiliarySpaceBytes(method, task.points.size(),
                                  task.grid.width(),
                                  task.grid.height(), 1, false) > 0) {
    EXPECT_GT(budget.peak_bytes(), 0u)
        << MethodName(method) << " never accounted any workspace";
  }
}

TEST(ReachCopyPollTest, AFaultAtEitherPassStopsTheCallBeforeItsFirstLine) {
  // The swept copy's two passes over the points (OrderByReach) poll the
  // ExecContext before their first point and every 2^16 points after, each
  // at its own site. A fault there ends the call, serial or parallel,
  // before any line polls. 70,000 points give each pass a second poll, at
  // point 65,536, so a trap armed to pass one hit trips there.
  const std::vector<Point> points = ClusteredPoints(70000, 50.0, 3, 619);
  KdvTask task;
  task.points = points;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 6.0;
  task.weight = 1.0 / 70000.0;
  task.grid = MakeGrid(16, 12, 50.0);
  for (const std::string site : {"engine/reach_keys", "engine/reach_scatter"}) {
    for (const int64_t passed : {0, 1}) {
      for (const int threads : {0, 2}) {
        SCOPED_TRACE(site + " after " + std::to_string(passed) + " hits, " +
                     (threads == 0 ? "serial" : "2 threads"));
        const Status injected = Status::IoError("injected at " + site);
        FaultInjector injector;
        injector.Arm(site, passed, injected);
        ExecContext exec;
        exec.set_fault_injector(&injector);
        ParallelOptions options;
        options.num_threads = threads;
        options.engine.compute.exec = &exec;
        const auto result =
            threads == 0 ? ComputeKdv(task, Method::kSlamBucket, options.engine)
                         : ComputeKdvParallel(task, Method::kSlamBucket,
                                              options);
        EXPECT_EQ(result.status().code(), injected.code());
        EXPECT_EQ(result.status().message(), injected.message());
        EXPECT_EQ(injector.HitCount(site), passed + 1);
        EXPECT_EQ(injector.HitCount("slam_bucket/row"), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CancellationTest, ::testing::ValuesIn(AllMethods()),
    [](const ::testing::TestParamInfo<Method>& param_info) {
      std::string name;
      for (const char c : MethodName(param_info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace slam
