// RAO (paper Section 3.6) is the engine's choice of sweep axis, so every
// case runs through ComputeKdv: on a tall grid the SLAM_*_RAO methods sweep
// columns of the output instead of rows.
#include "core/rao.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kdv/engine.h"
#include "simd/dispatch.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::RandomPoints;

KdvTask MakeRaoTask(const std::vector<Point>& pts, int width, int height,
                    double extent, KernelType kernel = KernelType::kEpanechnikov) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = extent / 8.0;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  const double gx = extent / width;
  const double gy = extent / height;
  task.grid = Grid::Create(GridAxis{0.5 * gx, gx, width},
                           GridAxis{0.5 * gy, gy, height})
                  .ValueOrDie();
  return task;
}

DensityMap Compute(const KdvTask& task, Method method,
                   const EngineOptions& options = {}) {
  auto map = ComputeKdv(task, method, options);
  EXPECT_TRUE(map.ok()) << MethodName(method) << ": "
                        << map.status().ToString();
  return map.ok() ? *std::move(map) : DensityMap();
}

bool BitIdentical(const DensityMap& a, const DensityMap& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (size_t i = 0; i < a.values().size(); ++i) {
    if (std::bit_cast<uint64_t>(a.values()[i]) !=
        std::bit_cast<uint64_t>(b.values()[i])) {
      return false;
    }
  }
  return true;
}

TEST(RaoTest, TransposePredicate) {
  const std::vector<Point> pts{{1, 1}};
  EXPECT_FALSE(RaoWouldTranspose(MakeRaoTask(pts, 20, 10, 10.0)));  // X > Y
  EXPECT_FALSE(RaoWouldTranspose(MakeRaoTask(pts, 10, 10, 10.0)));  // X == Y
  EXPECT_TRUE(RaoWouldTranspose(MakeRaoTask(pts, 10, 20, 10.0)));   // Y > X
}

TEST(RaoTest, TallGridMatchesBruteForce) {
  const auto pts = ClusteredPoints(400, 40.0, 3, 307);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeRaoTask(pts, 12, 48, 40.0, kernel);
    const DensityMap sort_rao = Compute(task, Method::kSlamSortRao);
    const DensityMap bucket_rao = Compute(task, Method::kSlamBucketRao);
    const DensityMap expected = BruteForceDensity(task);
    ExpectMapsNear(expected, sort_rao, 1e-9);
    ExpectMapsNear(expected, bucket_rao, 1e-9);
  }
}

TEST(RaoTest, WideGridDelegatesToBase) {
  const auto pts = RandomPoints(300, 30.0, 311);
  const KdvTask task = MakeRaoTask(pts, 40, 10, 30.0);
  const DensityMap base = Compute(task, Method::kSlamBucket);
  const DensityMap rao = Compute(task, Method::kSlamBucketRao);
  // X >= Y: RAO must be bit-identical to the base algorithm.
  const auto cmp = *base.CompareTo(rao);
  EXPECT_EQ(cmp.max_abs_diff, 0.0);
}

TEST(RaoTest, TransposedResultHasOriginalOrientation) {
  const auto pts = RandomPoints(100, 20.0, 313);
  const KdvTask task = MakeRaoTask(pts, 8, 32, 20.0);
  const DensityMap rao = Compute(task, Method::kSlamBucketRao);
  EXPECT_EQ(rao.width(), 8);
  EXPECT_EQ(rao.height(), 32);
}

TEST(RaoTest, SortAndBucketRaoAgree) {
  const auto pts = ClusteredPoints(800, 50.0, 5, 317);
  const KdvTask task = MakeRaoTask(pts, 9, 63, 50.0);
  const DensityMap a = Compute(task, Method::kSlamSortRao);
  const DensityMap b = Compute(task, Method::kSlamBucketRao);
  ExpectMapsNear(a, b, 1e-12);
}

TEST(RaoTest, RejectsGaussianKernel) {
  const std::vector<Point> pts{{1, 1}};
  const KdvTask task = MakeRaoTask(pts, 4, 8, 10.0, KernelType::kGaussian);
  EXPECT_TRUE(ComputeKdv(task, Method::kSlamSortRao).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ComputeKdv(task, Method::kSlamBucketRao).status()
                  .IsInvalidArgument());
}

TEST(RaoTest, PropagatesDeadline) {
  const auto pts = RandomPoints(20000, 100.0, 331);
  const KdvTask task = MakeRaoTask(pts, 100, 500, 100.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  EXPECT_EQ(ComputeKdv(task, Method::kSlamBucketRao, opts).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(RaoTest, ExtremeAspectRatio) {
  const auto pts = RandomPoints(200, 20.0, 337);
  const KdvTask task = MakeRaoTask(pts, 2, 128, 20.0);
  const DensityMap out = Compute(task, Method::kSlamBucketRao);
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
}

TEST(RaoTest, ColumnSweepIsTheTransposedRowSweepBitForBit) {
  // Sweeping columns is the base method's row sweep of the transposed
  // task, stored down the columns: the same copy, the same order, the same
  // lines, so every pixel must match to the bit, recentered or not, on
  // every backend.
  const double extent = 60.0;
  const auto near = ClusteredPoints(500, extent, 4, 347);
  for (const auto& [width, height] :
       {std::pair{12, 48}, std::pair{37, 91}, std::pair{2, 128}}) {
    for (const double offset : {0.0, 1e7, -1e7}) {
      std::vector<Point> pts = near;
      for (Point& p : pts) {
        p.x += offset;
        p.y -= offset;
      }
      for (const KernelType kernel :
           {KernelType::kUniform, KernelType::kEpanechnikov,
            KernelType::kQuartic}) {
        KdvTask task = MakeRaoTask(pts, width, height, extent, kernel);
        task.grid = task.grid.Translated(-offset, offset);
        ASSERT_TRUE(RaoWouldTranspose(task));
        ASSERT_EQ(TaskFarFromOrigin(task), offset != 0.0);
        const TransposedTask transposed(task);
        for (const SimdLevel level :
             {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
          if (!SimdLevelAvailable(level)) continue;
          EngineOptions options;
          options.compute.simd = level;
          for (const auto& [rao, base] :
               {std::pair{Method::kSlamSortRao, Method::kSlamSort},
                std::pair{Method::kSlamBucketRao, Method::kSlamBucket}}) {
            SCOPED_TRACE(std::string(MethodName(rao)) + " " +
                         std::to_string(width) + "x" + std::to_string(height) +
                         " offset " + std::to_string(offset) + " " +
                         std::string(KernelTypeName(kernel)) + " " +
                         std::string(SimdLevelName(level)));
            const DensityMap columns = Compute(task, rao, options);
            const DensityMap rows = Compute(transposed.task(), base, options);
            EXPECT_TRUE(BitIdentical(columns, rows.Transposed()));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace slam
