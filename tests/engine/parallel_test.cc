#include "kdv/parallel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/rao.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;

KdvTask MakeParallelTask(const std::vector<Point>& pts, int width,
                         int height) {
  KdvTask task;
  task.points = pts;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 8.0;
  task.weight = 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(width, height, 60.0);
  return task;
}

TEST(ParallelKdvTest, MatchesSerialBitForBit) {
  // Every line is computed from the inputs the call's one prologue
  // prepared, whichever thread runs it. The odd 37 rows split unevenly;
  // on the tall 12x48 grid RAO sweeps columns, and the threads split the
  // columns. The 1e7 offset makes the engine recenter.
  const auto near = ClusteredPoints(2000, 60.0, 5, 601);
  for (const auto& [width, height] : {std::pair{40, 37}, std::pair{12, 48}}) {
    for (const double offset : {0.0, 1e7}) {
      std::vector<Point> pts = near;
      for (Point& p : pts) {
        p.x += offset;
        p.y += offset;
      }
      for (const KernelType kernel :
           {KernelType::kUniform, KernelType::kEpanechnikov,
            KernelType::kQuartic}) {
        KdvTask task = MakeParallelTask(pts, width, height);
        task.kernel = kernel;
        task.grid = task.grid.Translated(-offset, -offset);
        for (const SimdLevel level :
             {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
          if (!SimdLevelAvailable(level)) continue;
          ParallelOptions options;
          options.engine.compute.simd = level;
          for (const Method m : AllMethods()) {
            const std::string label =
                std::string(MethodName(m)) + " " + std::to_string(width) +
                "x" + std::to_string(height) + " offset " +
                std::to_string(offset) + " " +
                std::string(KernelTypeName(kernel)) + " " +
                std::string(SimdLevelName(level));
            const auto serial = ComputeKdv(task, m, options.engine);
            ASSERT_TRUE(serial.ok()) << label << ": "
                                     << serial.status().ToString();
            for (const int threads : {1, 2, 3, 8}) {
              options.num_threads = threads;
              const auto parallel = ComputeKdvParallel(task, m, options);
              ASSERT_TRUE(parallel.ok()) << label << ": "
                                         << parallel.status().ToString();
              ASSERT_EQ(parallel->values().size(), serial->values().size());
              EXPECT_EQ(std::memcmp(parallel->values().data(),
                                    serial->values().data(),
                                    serial->values().size_bytes()),
                        0)
                  << label << ", " << threads << " threads";
            }
          }
        }
      }
    }
  }
}

/// True when the two rasters hold the same bytes.
bool SameBits(const DensityMap& a, const DensityMap& b) {
  return a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size_bytes()) == 0;
}

TEST(ParallelKdvTest, ColumnBlocksAcrossStripesMatchSerialAndTheRowSweep) {
  // A RAO column sweep stores its lines kColumnBlockLines at a time, and
  // each stripe flushes its last, partial block. 37 columns are 4 full
  // blocks and one of 5 serially, and 2T stripes cut by work at 1, 2, 3
  // and 8 threads hold full and partial blocks of other sizes. Each raster
  // must be the serial one, and that must be the base method's row sweep
  // of the transposed task, transposed (as RaoTest checks), bit for bit.
  const auto near = ClusteredPoints(2000, 60.0, 5, 607);
  for (const double offset : {0.0, 1e7}) {
    std::vector<Point> pts = near;
    for (Point& p : pts) {
      p.x += offset;
      p.y += offset;
    }
    for (const KernelType kernel :
         {KernelType::kUniform, KernelType::kEpanechnikov,
          KernelType::kQuartic}) {
      KdvTask task = MakeParallelTask(pts, 37, 96);
      task.kernel = kernel;
      task.grid = task.grid.Translated(-offset, -offset);
      ASSERT_TRUE(RaoWouldTranspose(task));
      ASSERT_EQ(TaskFarFromOrigin(task), offset != 0.0);
      const TransposedTask transposed(task);
      for (const SimdLevel level :
           {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
        if (!SimdLevelAvailable(level)) continue;
        ParallelOptions options;
        options.engine.compute.simd = level;
        for (const auto& [rao, base] :
             {std::pair{Method::kSlamSortRao, Method::kSlamSort},
              std::pair{Method::kSlamBucketRao, Method::kSlamBucket}}) {
          const std::string label =
              std::string(MethodName(rao)) + " offset " +
              std::to_string(offset) + " " +
              std::string(KernelTypeName(kernel)) + " " +
              std::string(SimdLevelName(level));
          const auto serial = ComputeKdv(task, rao, options.engine);
          ASSERT_TRUE(serial.ok()) << label << ": "
                                   << serial.status().ToString();
          const auto rows = ComputeKdv(transposed.task(), base, options.engine);
          ASSERT_TRUE(rows.ok()) << label << ": " << rows.status().ToString();
          EXPECT_TRUE(SameBits(*serial, rows->Transposed())) << label;
          for (const int threads : {1, 2, 3, 8}) {
            options.num_threads = threads;
            const auto parallel = ComputeKdvParallel(task, rao, options);
            ASSERT_TRUE(parallel.ok()) << label << ": "
                                       << parallel.status().ToString();
            EXPECT_TRUE(SameBits(*parallel, *serial))
                << label << ", " << threads << " threads";
          }
        }
      }
    }
  }
}

TEST(ParallelKdvTest, AllExactMethodsStayExact) {
  const auto pts = ClusteredPoints(400, 60.0, 3, 607);
  const KdvTask task = MakeParallelTask(pts, 20, 15);
  const DensityMap expected = BruteForceDensity(task);
  ParallelOptions options;
  options.num_threads = 3;
  for (const Method m : ExactMethods()) {
    const auto map = ComputeKdvParallel(task, m, options);
    ASSERT_TRUE(map.ok()) << MethodName(m);
    ExpectMapsNear(expected, *map, 1e-9,
                   std::string(MethodName(m)).c_str());
  }
}

TEST(ParallelKdvTest, RaoMethodsInsideStripes) {
  // Tall grid: RAO sweeps the 10 columns, and the threads split the
  // columns; the result must be exact.
  const auto pts = ClusteredPoints(600, 60.0, 4, 613);
  const KdvTask task = MakeParallelTask(pts, 10, 60);
  ParallelOptions options;
  options.num_threads = 4;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucketRao, options);
  ASSERT_TRUE(map.ok());
  ExpectMapsNear(BruteForceDensity(task), *map, 1e-9);
}

TEST(ParallelKdvTest, MoreThreadsThanRows) {
  const auto pts = ClusteredPoints(200, 60.0, 2, 617);
  const KdvTask task = MakeParallelTask(pts, 30, 3);
  ParallelOptions options;
  options.num_threads = 16;
  const auto map = ComputeKdvParallel(task, Method::kSlamSort, options);
  ASSERT_TRUE(map.ok());
  ExpectMapsNear(BruteForceDensity(task), *map, 1e-9);
}

TEST(ParallelKdvTest, RejectsGaussianForSlam) {
  const auto pts = ClusteredPoints(50, 60.0, 1, 619);
  KdvTask task = MakeParallelTask(pts, 8, 8);
  task.kernel = KernelType::kGaussian;
  EXPECT_FALSE(ComputeKdvParallel(task, Method::kSlamBucket).ok());
}

TEST(ParallelKdvTest, RejectsInvalidTask) {
  const auto pts = ClusteredPoints(50, 60.0, 1, 631);
  KdvTask task = MakeParallelTask(pts, 8, 8);
  task.bandwidth = -1;
  EXPECT_FALSE(ComputeKdvParallel(task, Method::kSlamBucket).ok());
}

TEST(ParallelKdvTest, PropagatesStripeErrors) {
  const auto pts = ClusteredPoints(20000, 60.0, 4, 641);
  const KdvTask task = MakeParallelTask(pts, 200, 200);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  ParallelOptions options;
  options.num_threads = 2;
  options.engine.compute.exec = &exec;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
  EXPECT_EQ(map.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ParallelKdvTest, FailingStripeCancelsSiblingsAndPropagates) {
  const auto pts = ClusteredPoints(20000, 60.0, 4, 647);
  const KdvTask task = MakeParallelTask(pts, 64, 64);
  // Fail stripe 3 of the N stripe entry checkpoints: the first two stripes
  // pass their entry check, the third trips with IoError. That error (not a
  // secondary Cancelled from a sibling) must be what the caller sees.
  FaultInjector injector;
  injector.Arm("parallel/stripe", 2, Status::IoError("injected stripe fault"));
  ExecContext exec;
  exec.set_fault_injector(&injector);
  ParallelOptions options;
  options.num_threads = 4;
  options.engine.compute.exec = &exec;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kIoError);
  EXPECT_NE(map.status().message().find("injected stripe fault"),
            std::string::npos);
}

TEST(ParallelKdvTest, CancelledCallerTokenStopsAllStripes) {
  const auto pts = ClusteredPoints(5000, 60.0, 3, 653);
  const KdvTask task = MakeParallelTask(pts, 64, 64);
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  ParallelOptions options;
  options.num_threads = 2;
  options.engine.compute.exec = &exec;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
  EXPECT_EQ(map.status().code(), StatusCode::kCancelled);
}

TEST(ParallelKdvTest, StripesShareOneMemoryBudget) {
  const auto pts = ClusteredPoints(2000, 60.0, 3, 659);
  const KdvTask task = MakeParallelTask(pts, 32, 32);
  MemoryBudget budget(size_t{64} << 20);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  ParallelOptions options;
  options.num_threads = 4;
  options.engine.compute.exec = &exec;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(budget.used_bytes(), 0u);  // every stripe released its charges
  EXPECT_GT(budget.peak_bytes(), 0u);
  ExpectMapsNear(BruteForceDensity(task), *map, 1e-9);
}

TEST(ParallelKdvTest, DefaultThreadCountWorks) {
  const auto pts = ClusteredPoints(300, 60.0, 3, 643);
  const KdvTask task = MakeParallelTask(pts, 16, 16);
  const auto map = ComputeKdvParallel(task, Method::kSlamBucketRao);
  ASSERT_TRUE(map.ok());
  ExpectMapsNear(BruteForceDensity(task), *map, 1e-9);
}

}  // namespace
}  // namespace slam
