#include "core/slam_bucket.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/slam_sort.h"
#include "kdv/engine.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;
using testing::RandomPoints;

KdvTask MakeBucketTask(const std::vector<Point>& pts, KernelType kernel,
                       double bandwidth, int width, int height,
                       double extent) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(width, height, extent);
  return task;
}

TEST(SlamBucketTest, MatchesBruteForceAllKernels) {
  const auto pts = RandomPoints(400, 50.0, 263);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeBucketTask(pts, kernel, 6.0, 25, 20, 50.0);
    DensityMap out;
    ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
    ExpectMapsNear(BruteForceDensity(task), out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(SlamBucketTest, AgreesWithSlamSortExactly) {
  // Both are exact; on the same input they should agree to near-bitwise
  // precision (same aggregates, same order of pixel evaluation).
  const auto pts = ClusteredPoints(1500, 100.0, 6, 269);
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kEpanechnikov, 12.0, 40, 30, 100.0);
  DensityMap sorted, bucketed;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &sorted).ok());
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &bucketed).ok());
  ExpectMapsNear(sorted, bucketed, 1e-12);
}

TEST(SlamBucketTest, IncrementalEnvelopeGivesSameResult) {
  // The engine sweeps a reach-ordered copy, slicing each row's envelope out of
  // it; a direct call on unsorted points rescans all n per row (Algorithm
  // 2). Same envelopes, summed in another order.
  const auto pts = ClusteredPoints(500, 60.0, 3, 271);
  ASSERT_FALSE(std::is_sorted(
      pts.begin(), pts.end(),
      [](const Point& a, const Point& b) { return a.y < b.y; }));
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kUniform, 8.0, 20, 20, 60.0);
  DensityMap scanned;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &scanned).ok());
  const auto sliced = ComputeKdv(task, Method::kSlamBucket);
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  ExpectMapsNear(scanned, *sliced, 1e-12);
}

TEST(SlamBucketTest, SortedPointsSliceTheScansEnvelopesBitForBit) {
  // A direct call scans all points on every row, sorted or not, so this
  // compares two scans: one of y-sorted points, and one of the same points
  // behind an extra point beyond every row's reach. The extra point leaves
  // each row's envelope, and the order the scan emits it in, as it is, so
  // the rasters agree bit for bit. That the engine's slice of its
  // reach-ordered copy holds the points the scan admits is checked by
  // ReachOrderTest.CursorYieldsTheScansEnvelopeAtEveryLine.
  std::vector<Point> sorted = ClusteredPoints(800, 60.0, 4, 277);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Point& a, const Point& b) { return a.y < b.y; });
  std::vector<Point> unsorted = sorted;
  unsorted.insert(unsorted.begin(), Point{30.0, 1e6});
  const KdvTask sliced =
      MakeBucketTask(sorted, KernelType::kQuartic, 7.0, 24, 18, 60.0);
  KdvTask scanned = sliced;
  scanned.points = unsorted;
  for (const auto compute : {&ComputeSlamBucket, &ComputeSlamSort}) {
    DensityMap from_slices, from_scan;
    ASSERT_TRUE(compute(sliced, {}, &from_slices).ok());
    ASSERT_TRUE(compute(scanned, {}, &from_scan).ok());
    for (int iy = 0; iy < sliced.grid.height(); ++iy) {
      for (int ix = 0; ix < sliced.grid.width(); ++ix) {
        ASSERT_EQ(from_slices.at(ix, iy), from_scan.at(ix, iy))
            << "pixel (" << ix << ", " << iy << ")";
      }
    }
  }
}

TEST(SlamBucketTest, EmptyPointsGiveZeroRaster) {
  const KdvTask task =
      MakeBucketTask({}, KernelType::kQuartic, 2.0, 6, 7, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  EXPECT_EQ(out.MaxValue(), 0.0);
}

TEST(SlamBucketTest, RejectsGaussianKernel) {
  const std::vector<Point> pts{{1, 1}};
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kGaussian, 2.0, 4, 4, 10.0);
  DensityMap out;
  EXPECT_TRUE(ComputeSlamBucket(task, {}, &out).IsInvalidArgument());
}

TEST(SlamBucketTest, HonorsDeadline) {
  const auto pts = RandomPoints(20000, 100.0, 277);
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kEpanechnikov, 30.0, 400, 400, 100.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  ComputeOptions opts;
  opts.exec = &exec;
  DensityMap out;
  EXPECT_EQ(ComputeSlamBucket(task, opts, &out).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SlamBucketTest, EndpointsBeyondGridEdgesAreSafe) {
  // Points whose intervals extend left of pixel 0 and right of the last
  // pixel exercise the bucket clamping (Eqs. 19-20 clamps).
  const std::vector<Point> pts{{-8.0, 5.0}, {18.0, 5.0}, {5.0, 5.0}};
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kEpanechnikov, 9.5, 10, 10, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-12);
}

TEST(SlamBucketTest, EndpointExactlyOnPixelCoordinate) {
  // lb/ub that land exactly on pixel centers stress the ceil/floor bucket
  // boundary logic. Pixel centers at 0.5, 1.5, ..., 9.5; a point at
  // (5.5, 5.5) with b = 2 has lb = 3.5, ub = 7.5, both exact centers.
  const std::vector<Point> pts{{5.5, 5.5}};
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kUniform, 2.0, 10, 10, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-12);
  // Row 5 (center y = 5.5): uniform kernel contributes 1/b = 0.5 for
  // pixels with |qx - 5.5| <= 2, i.e. centers 3.5 .. 7.5 inclusive.
  EXPECT_DOUBLE_EQ(out.at(3, 5), 0.5);
  EXPECT_DOUBLE_EQ(out.at(7, 5), 0.5);
  EXPECT_DOUBLE_EQ(out.at(2, 5), 0.0);
  EXPECT_DOUBLE_EQ(out.at(8, 5), 0.0);
}

TEST(SlamBucketTest, ManyDuplicatePoints) {
  std::vector<Point> pts(500, Point{25.0, 25.0});
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kQuartic, 10.0, 20, 20, 50.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
}

TEST(SlamBucketTest, SinglePixelGrid) {
  const auto pts = RandomPoints(50, 10.0, 281);
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kEpanechnikov, 4.0, 1, 1, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
}

TEST(SlamBucketTest, SingleRowAndSingleColumnGrids) {
  const auto pts = RandomPoints(200, 30.0, 283);
  for (const auto& [w, h] : {std::pair{64, 1}, std::pair{1, 64}}) {
    const KdvTask task =
        MakeBucketTask(pts, KernelType::kEpanechnikov, 5.0, w, h, 30.0);
    DensityMap out;
    ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
    ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
  }
}

TEST(SlamBucketTest, VeryLargeBandwidthCoversEverything) {
  const auto pts = RandomPoints(100, 10.0, 293);
  const KdvTask task =
      MakeBucketTask(pts, KernelType::kUniform, 1000.0, 8, 8, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamBucket(task, {}, &out).ok());
  // Uniform kernel: every pixel sees all n points -> w * n / b everywhere.
  const double expected = (1.0 / 100.0) * 100.0 / 1000.0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(out.at(x, y), expected, 1e-12);
    }
  }
}

}  // namespace
}  // namespace slam
