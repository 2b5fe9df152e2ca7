// RAO (paper Section 3.6) is the engine's choice of sweep axis, so every
// case runs through ComputeKdv: where columns read fewer point–line pairs
// than rows, stores included (core/rao.h), the SLAM_*_RAO methods sweep
// columns of the output instead of rows.
#include "core/rao.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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

/// A width×height grid over the region [0, extent_x] × [0, extent_y].
KdvTask MakeRegionTask(const std::vector<Point>& pts, int width, int height,
                       double extent_x, double extent_y, double bandwidth,
                       KernelType kernel = KernelType::kEpanechnikov) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  const double gx = extent_x / width;
  const double gy = extent_y / height;
  task.grid = Grid::Create(GridAxis{0.5 * gx, gx, width},
                           GridAxis{0.5 * gy, gy, height})
                  .ValueOrDie();
  return task;
}

/// A square region with b = extent / 8.
KdvTask MakeRaoTask(const std::vector<Point>& pts, int width, int height,
                    double extent, KernelType kernel = KernelType::kEpanechnikov) {
  return MakeRegionTask(pts, width, height, extent, extent, extent / 8.0,
                        kernel);
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
  // On a square region, enough points that the column stores do not decide.
  const auto pts = RandomPoints(1000, 10.0, 301);
  EXPECT_FALSE(RaoWouldTranspose(MakeRaoTask(pts, 20, 10, 10.0)));  // X > Y
  EXPECT_FALSE(RaoWouldTranspose(MakeRaoTask(pts, 10, 10, 10.0)));  // X == Y
  EXPECT_TRUE(RaoWouldTranspose(MakeRaoTask(pts, 10, 20, 10.0)));   // Y > X
}

TEST(RaoTest, ColumnsWhenTheyReadFewerPointLinePairs) {
  // Each of n points reaches about 2b/gap lines and at most all L of them;
  // columns also pay 0.75 per pixel for their stores. Where the paper's
  // Y > X and this rule part, the rule follows the pairs.
  struct AxisCase {
    const char* name;
    size_t n;
    int width, height;
    double extent_x, extent_y, bandwidth;
    bool columns;
    // Points right of the view by more than b, as on a zoomed view: they
    // reach no line, so they count for neither axis.
    size_t outside = 0;
  };
  const AxisCase cases[] = {
      // 9.1 lines per point as rows, 13.7 as columns.
      {"tall pixels on a tall grid", 4000, 96, 128, 14.0, 28.0, 1.0, false},
      // 18.3 lines per point as rows, 9.1 as columns, plus 12288 for the
      // stores.
      {"wide pixels on a square grid", 4000, 128, 128, 28.0, 14.0, 1.0, true},
      // gx/gy = 1.05: 90 lines per point as rows, 85.7 as columns, fewer
      // near the edges; the 0.92M for the stores outweighs the 0.2M pairs
      // the columns save.
      {"near-tie, 1280x960", 62784, 1280, 960, 1344.0, 960.0, 45.0, false},
      // Counted, four times as many points right of the view would make
      // the pairs the columns save outweigh the stores.
      {"near-tie, points outside the view", 62784, 1280, 960, 1344.0, 960.0,
       45.0, false, 4 * 62784},
      // At most 50 pairs as rows, fewer than the 150 the column stores
      // alone cost.
      {"few points on a tall grid", 10, 10, 20, 10.0, 10.0, 1.25, false},
      // b beyond the extent: every line sees every point, so the axis with
      // fewer lines reads fewer pairs, whatever the pixels' shape.
      {"b beyond the extent, tall pixels", 1000, 20, 40, 10.0, 40.0, 100.0,
       true},
      {"same grid, small b", 1000, 20, 40, 10.0, 40.0, 1.0, false},
      {"b beyond the extent, wide pixels", 1000, 40, 20, 40.0, 10.0, 100.0,
       false},
      {"same grid, small b", 1000, 40, 20, 40.0, 10.0, 1.0, true},
      // 15 × 20 pairs as rows, 15 × 10 + 150 for the stores as columns.
      {"a tie goes to rows", 15, 10, 20, 10.0, 10.0, 100.0, false},
  };
  for (const AxisCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto pts = RandomPoints(c.n, std::min(c.extent_x, c.extent_y), 303);
    for (size_t i = 0; i < c.outside; ++i) {
      const Point& p = pts[i % c.n];
      pts.push_back({p.x + c.extent_x + 2.0 * c.bandwidth, p.y});
    }
    EXPECT_EQ(RaoWouldTranspose(MakeRegionTask(pts, c.width, c.height,
                                               c.extent_x, c.extent_y,
                                               c.bandwidth)),
              c.columns);
  }
}

TEST(RaoTest, PointsPastTheGridsEdgeReachFewerLines) {
  // Unit pixels, b = 10: a point inside the square grid reaches about 20
  // rows and 20 columns, so the stores keep rows. Moved into the 8 units
  // right of the grid, the points are still kept (within b) and still
  // reach about 20 rows, but only 2–10 columns, so columns read fewer
  // pairs.
  std::vector<Point> pts = RandomPoints(1000, 40.0, 359);
  EXPECT_FALSE(
      RaoWouldTranspose(MakeRegionTask(pts, 40, 40, 40.0, 40.0, 10.0)));
  for (Point& p : pts) p.x = 40.0 + p.x / 5.0;
  EXPECT_TRUE(
      RaoWouldTranspose(MakeRegionTask(pts, 40, 40, 40.0, 40.0, 10.0)));
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

TEST(RaoTest, KeepsRowsOnATallGridBitForBit) {
  // Where the rule keeps rows on a tall grid, the RAO methods run their
  // base method's sweep: the same copy and the same lines, so every pixel
  // matches to the bit. The last case adds 200 NaN points and 200 points
  // left of the view by more than b. Counted, they would tip the rule to
  // columns, but none is within b of the grid, so the rule leaves them out
  // as the engine's copy does.
  struct RowsCase {
    std::vector<Point> points;
    size_t outside;
    int width, height;
    double extent_x, extent_y, bandwidth;
  };
  const auto few = ClusteredPoints(50, 10.0, 2, 353);
  const RowsCase cases[] = {
      {ClusteredPoints(4000, 14.0, 4, 349), 0, 96, 128, 14.0, 28.0, 1.0},
      {few, 0, 10, 20, 10.0, 10.0, 1.25},
      {few, 200, 10, 20, 10.0, 10.0, 1.25},
  };
  EngineOptions options;
  options.sanitize = true;
  for (const RowsCase& c : cases) {
    std::vector<Point> points = c.points;
    points.insert(points.end(), c.outside, Point{std::nan(""), 1.0});
    points.insert(points.end(), c.outside, Point{-100.0, 1.0});
    for (const KernelType kernel :
         {KernelType::kUniform, KernelType::kEpanechnikov,
          KernelType::kQuartic}) {
      KdvTask task = MakeRegionTask(c.points, c.width, c.height, c.extent_x,
                                    c.extent_y, c.bandwidth, kernel);
      ASSERT_GT(task.grid.height(), task.grid.width());
      ASSERT_FALSE(RaoWouldTranspose(task));
      task.points = points;
      ASSERT_FALSE(RaoWouldTranspose(task));
      for (const auto& [rao, base] :
           {std::pair{Method::kSlamSortRao, Method::kSlamSort},
            std::pair{Method::kSlamBucketRao, Method::kSlamBucket}}) {
        SCOPED_TRACE(std::string(MethodName(rao)) + " " +
                     std::to_string(points.size()) + " points " +
                     std::to_string(c.width) + "x" +
                     std::to_string(c.height) + " " +
                     std::string(KernelTypeName(kernel)));
        EXPECT_TRUE(BitIdentical(Compute(task, rao, options),
                                 Compute(task, base, options)));
      }
    }
  }
}

TEST(RaoTest, ColumnSweepIsTheTransposedRowSweepBitForBit) {
  // Sweeping columns is the base method's row sweep of the transposed
  // task, stored down the columns: the same copy, the same order, the same
  // lines, so every pixel must match to the bit, recentered or not, on
  // every backend.
  const double extent = 60.0;
  const auto near = ClusteredPoints(500, extent, 4, 347);
  // The last grid is square, on a region twice as wide as tall: its
  // pixels are twice as wide as tall, so the rule sweeps its columns.
  struct Shape {
    int width, height;
    double extent_x;
  };
  for (const auto& [width, height, extent_x] :
       {Shape{12, 48, extent}, Shape{37, 91, extent}, Shape{2, 128, extent},
        Shape{32, 32, 2 * extent}}) {
    for (const double offset : {0.0, 1e7, -1e7}) {
      std::vector<Point> pts = near;
      for (Point& p : pts) {
        p.x += offset;
        p.y -= offset;
      }
      for (const KernelType kernel :
           {KernelType::kUniform, KernelType::kEpanechnikov,
            KernelType::kQuartic}) {
        KdvTask task = MakeRegionTask(pts, width, height, extent_x, extent,
                                      extent / 8.0, kernel);
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
