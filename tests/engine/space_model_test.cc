#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/rao.h"
#include "core/sweep_arena.h"
#include "core/sweep_rows.h"
#include "kdv/engine.h"
#include "kdv/parallel.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

using testing::MakeGrid;
using testing::RandomPoints;

TEST(SpaceModelTest, ScanNeedsNoAuxiliarySpace) {
  EXPECT_EQ(
      EstimateAuxiliarySpaceBytes(Method::kScan, 1000000, 1280, 960, 1, false),
      0u);
}

TEST(SpaceModelTest, GrowsLinearlyInN) {
  for (const Method m : AllMethods()) {
    if (m == Method::kScan) continue;
    const size_t small =
        EstimateAuxiliarySpaceBytes(m, 100000, 1280, 960, 1, false);
    const size_t large =
        EstimateAuxiliarySpaceBytes(m, 400000, 1280, 960, 1, false);
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
    const size_t bytes =
        EstimateAuxiliarySpaceBytes(m, 1000000, 1280, 960, 1, false);
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
  // sweeps columns, adding the block of lines its columns are stored
  // from), near the origin and at 1e7 (the engine recenters), with a
  // bandwidth that keeps a sliver of the points per line and one that keeps
  // all of them on every line.
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
                EstimateAuxiliarySpaceBytes(
                    method, task.points.size(), task.grid.width(),
                    task.grid.height(), 1, TaskFarFromOrigin(task)));
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

TEST(SpaceModelTest, CoversWhatEveryMethodHoldsSeriallyAndInParallel) {
  // The pre-flight prices what a call holds: what its stripes share once
  // (the swept copy, or the baselines' recentered copy) and each stripe's
  // own index or arena once per stripe that can run at once. So every
  // method's peak charge stays under it, serially and on 2, 3 and 4
  // threads, near the origin and at 1e7 (the engine recenters), and a
  // budget of exactly that figure never fails. Every grid here has at
  // least 4 swept lines, so T threads run T stripes at once.
  const double extent = 100.0;
  const std::vector<Point> near = RandomPoints(2000, extent, /*seed=*/0x3E);
  std::vector<Point> far = near;
  for (Point& p : far) {
    p.x += 1e7;
    p.y += 1e7;
  }
  for (const bool recentered : {false, true}) {
    for (const auto& [width, height] : {std::pair{96, 64}, std::pair{32, 48}}) {
      KdvTask task;
      task.points = recentered ? far : near;
      task.kernel = KernelType::kEpanechnikov;
      task.bandwidth = 20.0;
      task.weight = 1.0 / 2000.0;
      task.grid = MakeGrid(width, height, extent);
      if (recentered) task.grid = task.grid.Translated(-1e7, -1e7);
      ASSERT_EQ(TaskFarFromOrigin(task), recentered);
      for (const Method method : AllMethods()) {
        for (const int threads : {0, 2, 3, 4}) {
          SCOPED_TRACE(std::string(MethodName(method)) + " " +
                       std::to_string(width) + "x" + std::to_string(height) +
                       (recentered ? " recentered" : "") +
                       (threads == 0 ? " serial"
                                     : " " + std::to_string(threads) +
                                           " threads"));
          const size_t estimate = EstimateAuxiliarySpaceBytes(
              method, task.points.size(), width, height,
              threads == 0 ? 1 : threads, recentered);
          const auto peak_under = [&](size_t limit) {
            MemoryBudget budget(limit);
            ExecContext exec;
            exec.set_memory_budget(&budget);
            ParallelOptions options;
            options.num_threads = threads;
            options.engine.compute.exec = &exec;
            const auto map =
                threads == 0 ? ComputeKdv(task, method, options.engine)
                             : ComputeKdvParallel(task, method, options);
            EXPECT_TRUE(map.ok()) << map.status().ToString();
            EXPECT_EQ(budget.used_bytes(), 0u);
            return budget.peak_bytes();
          };
          // Capacity earlier computes left in this thread's arena is a
          // thread cache (core/sweep_arena.h); start without it.
          ThreadSweepArenaForTest().Release();
          EXPECT_LE(peak_under(size_t{1} << 30), estimate);
          // With the cache left in place: the arena shrinks to this
          // compute's own lanes before its charge would be refused.
          EXPECT_LE(peak_under(estimate), estimate);
        }
      }
    }
  }
}

TEST(SpaceModelTest, RaoColumnSweepPeaksAtTheRowSweepPlusOneBlock) {
  // RAO on a tall grid sweeps the columns of the engine's one copy into the
  // one output raster, so its peak charge is the base method's on the
  // transposed task plus the block of kColumnBlockLines lines its columns
  // are stored from: no second copy of the points.
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
                  sizeof(double) * static_cast<size_t>(kColumnBlockLines) *
                      static_cast<size_t>(task.grid.height()))
        << "b=" << bandwidth;
  }
}

TEST(SpaceModelTest, CoversARaoColumnSweepOfASquareGrid) {
  // On a region twice as wide as tall, a square grid's pixels are twice as
  // wide as tall, so RAO's rule sweeps its columns (core/rao.h). The
  // pre-flight prices either axis for the RAO methods, so their peak stays
  // under it and a budget of exactly that figure succeeds, serially and on
  // 2 threads. The points lie in a 2-wide strip down the middle, so the
  // columns there see every point and the peak meets the estimate to the
  // byte, the block of lines its columns are stored from included.
  std::vector<Point> points = RandomPoints(2000, 100.0, /*seed=*/0x4D);
  for (Point& p : points) p.x = 99.0 + p.x / 50.0;
  for (const double bandwidth : {4.0, 10.0}) {
    KdvTask task;
    task.points = points;
    task.kernel = KernelType::kQuartic;
    task.bandwidth = bandwidth;
    task.weight = 1.0 / 2000.0;
    task.grid = Grid::Create(GridAxis{200.0 / 96, 200.0 / 48, 48},
                             GridAxis{100.0 / 96, 100.0 / 48, 48})
                    .ValueOrDie();
    ASSERT_TRUE(RaoWouldTranspose(task));
    for (const Method method : {Method::kSlamSortRao, Method::kSlamBucketRao}) {
      for (const int threads : {0, 2}) {
        SCOPED_TRACE(std::string(MethodName(method)) + " b=" +
                     std::to_string(bandwidth) +
                     (threads == 0 ? " serial" : " 2 threads"));
        const size_t estimate = EstimateAuxiliarySpaceBytes(
            method, points.size(), 48, 48, threads == 0 ? 1 : threads, false);
        const auto peak_under = [&](size_t limit) {
          ThreadSweepArenaForTest().Release();
          MemoryBudget budget(limit);
          ExecContext exec;
          exec.set_memory_budget(&budget);
          ParallelOptions options;
          options.num_threads = threads;
          options.engine.compute.exec = &exec;
          const auto map = threads == 0
                               ? ComputeKdv(task, method, options.engine)
                               : ComputeKdvParallel(task, method, options);
          EXPECT_TRUE(map.ok()) << map.status().ToString();
          return budget.peak_bytes();
        };
        EXPECT_LE(peak_under(size_t{1} << 30), estimate);
        EXPECT_LE(peak_under(estimate), estimate);
      }
    }
  }
}

TEST(SpaceModelTest, RaoBucketUsesLongerAxis) {
  // Tall viewport: RAO's buckets span the (longer) y axis.
  const size_t tall = EstimateAuxiliarySpaceBytes(Method::kSlamBucketRao, 1000,
                                                  100, 100000, 1, false);
  const size_t base = EstimateAuxiliarySpaceBytes(Method::kSlamBucket, 1000,
                                                  100, 100000, 1, false);
  EXPECT_GT(tall, base);
}

}  // namespace
}  // namespace slam
