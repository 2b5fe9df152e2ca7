#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/sweep_arena.h"
#include "kdv/engine.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

using testing::MakeGrid;
using testing::RandomPoints;

TEST(SpaceModelTest, ScanNeedsNoAuxiliarySpace) {
  EXPECT_EQ(EstimateAuxiliarySpaceBytes(Method::kScan, 1000000, 1280, 960),
            0u);
}

TEST(SpaceModelTest, GrowsLinearlyInN) {
  for (const Method m : AllMethods()) {
    if (m == Method::kScan) continue;
    const size_t small = EstimateAuxiliarySpaceBytes(m, 100000, 1280, 960);
    const size_t large = EstimateAuxiliarySpaceBytes(m, 400000, 1280, 960);
    EXPECT_GT(large, small) << MethodName(m);
    // Theorem 4: O(n) auxiliary — quadrupling n at most ~quadruples bytes.
    EXPECT_LE(large, small * 4 + (1 << 20)) << MethodName(m);
  }
}

TEST(SpaceModelTest, AllMethodsWithinSmallFactorOfEachOther) {
  // Figure 17's observation: space consumption of all methods is similar.
  size_t min_bytes = SIZE_MAX, max_bytes = 0;
  for (const Method m : AllMethods()) {
    if (m == Method::kScan) continue;
    const size_t bytes = EstimateAuxiliarySpaceBytes(m, 1000000, 1280, 960);
    min_bytes = std::min(min_bytes, bytes);
    max_bytes = std::max(max_bytes, bytes);
  }
  EXPECT_LT(static_cast<double>(max_bytes) / static_cast<double>(min_bytes),
            10.0);
}

TEST(SpaceModelTest, CoversWhatASlamComputeCharges) {
  // The pre-flight estimate has to bound what the compute then charges,
  // or a budget the pre-flight accepts is refused mid-sweep instead of
  // before any work. Every SLAM method, on a wide grid and a tall one (RAO
  // sweeps columns, adding the line lane a column is stored from), near the
  // origin and at 1e7 (the engine recenters), with a bandwidth that keeps a
  // sliver of the points per line and one that keeps all of them on every
  // line.
  const double extent = 100.0;
  const auto expect_covered = [](const KdvTask& task) {
    for (const Method method : AllMethods()) {
      if (!MethodIsSlam(method)) continue;
      SCOPED_TRACE(std::string(MethodName(method)) + " n=" +
                   std::to_string(task.points.size()) + " " +
                   std::to_string(task.grid.width()) + "x" +
                   std::to_string(task.grid.height()) + " b=" +
                   std::to_string(task.bandwidth) + " " +
                   std::string(KernelTypeName(task.kernel)) +
                   (TaskFarFromOrigin(task) ? " recentered" : ""));
      // The estimate prices one compute's own footprint; capacity
      // earlier computes left in the thread's sweep arena is a
      // thread cache (core/sweep_arena.h), so start without it.
      ThreadSweepArenaForTest().Release();
      MemoryBudget budget(size_t{1} << 30);
      ExecContext exec;
      exec.set_memory_budget(&budget);
      EngineOptions options;
      options.compute.exec = &exec;
      const auto map = ComputeKdv(task, method, options);
      ASSERT_TRUE(map.ok()) << map.status().ToString();
      EXPECT_GT(budget.peak_bytes(), 0u);
      EXPECT_LE(budget.peak_bytes(),
                EstimateAuxiliarySpaceBytes(method, task.points.size(),
                                            task.grid.width(),
                                            task.grid.height()));
    }
  };
  const std::vector<Point> near = RandomPoints(2000, extent, /*seed=*/0x5A);
  std::vector<Point> far = near;
  for (Point& p : far) {
    p.x += 1e7;
    p.y += 1e7;
  }
  for (const bool recentered : {false, true}) {
    for (const auto& [width, height] : {std::pair{48, 32}, std::pair{32, 48}}) {
      for (const double bandwidth : {4.0, 250.0}) {
        for (const KernelType kernel :
             {KernelType::kEpanechnikov, KernelType::kQuartic}) {
          KdvTask task;
          task.points = recentered ? far : near;
          task.kernel = kernel;
          task.bandwidth = bandwidth;
          task.weight = 1.0 / 2000.0;
          task.grid = MakeGrid(width, height, extent);
          if (recentered) task.grid = task.grid.Translated(-1e7, -1e7);
          ASSERT_EQ(TaskFarFromOrigin(task), recentered);
          expect_covered(task);
        }
      }
    }
  }
  // Few points on long lines: the per-pixel lanes dominate the charge, and
  // quartic's buckets are the widest.
  for (const size_t n : {size_t{10}, size_t{200}}) {
    const std::vector<Point> few = RandomPoints(n, extent, /*seed=*/0x7C);
    for (const int length : {1024, 4096}) {
      for (const auto& [width, height] :
           {std::pair{length, 8}, std::pair{8, length}}) {
        for (const double bandwidth : {4.0, 250.0}) {
          KdvTask task;
          task.points = few;
          task.kernel = KernelType::kQuartic;
          task.bandwidth = bandwidth;
          task.weight = 1.0 / static_cast<double>(n);
          task.grid = MakeGrid(width, height, extent);
          expect_covered(task);
        }
      }
    }
  }
}

TEST(SpaceModelTest, RaoColumnSweepPeaksAtTheRowSweepPlusOneLine) {
  // RAO on a tall grid sweeps the columns of the engine's one copy into the
  // one output raster, so its peak charge is the base method's on the
  // transposed task plus the lane each column is stored from: no second
  // copy of the points.
  const double extent = 100.0;
  const std::vector<Point> points = RandomPoints(2000, extent, /*seed=*/0x6B);
  const auto peak_bytes = [](const KdvTask& task, Method method) {
    ThreadSweepArenaForTest().Release();
    MemoryBudget budget(size_t{1} << 30);
    ExecContext exec;
    exec.set_memory_budget(&budget);
    EngineOptions options;
    options.compute.exec = &exec;
    const auto map = ComputeKdv(task, method, options);
    EXPECT_TRUE(map.ok()) << map.status().ToString();
    return budget.peak_bytes();
  };
  for (const double bandwidth : {4.0, 250.0}) {
    KdvTask task;
    task.points = points;
    task.kernel = KernelType::kQuartic;
    task.bandwidth = bandwidth;
    task.weight = 1.0 / 2000.0;
    task.grid = MakeGrid(32, 96, extent);
    const TransposedTask transposed(task);
    EXPECT_LE(peak_bytes(task, Method::kSlamBucketRao),
              peak_bytes(transposed.task(), Method::kSlamBucket) +
                  sizeof(double) * static_cast<size_t>(task.grid.height()))
        << "b=" << bandwidth;
  }
}

TEST(SpaceModelTest, RaoBucketUsesLongerAxis) {
  // Tall viewport: RAO's buckets span the (longer) y axis.
  const size_t tall =
      EstimateAuxiliarySpaceBytes(Method::kSlamBucketRao, 1000, 100, 100000);
  const size_t base =
      EstimateAuxiliarySpaceBytes(Method::kSlamBucket, 1000, 100, 100000);
  EXPECT_GT(tall, base);
}

}  // namespace
}  // namespace slam
