// Overflow regressions for grids near INT_MAX pixels per axis. None of
// these allocate a raster — they pin down the *arithmetic*: pixel counts
// must widen to int64/size_t before multiplication or +1/+2 shifts, and
// the bucket clamps must stay exact at the extreme counts where
// `count + 1` in `int` is undefined behavior.
#include <climits>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/slam_bucket.h"
#include "kdv/engine.h"
#include "kdv/grid.h"

namespace slam {
namespace {

TEST(GridOverflowTest, CreateAcceptsIntMaxCounts) {
  const auto grid = Grid::Create({0.0, 1.0, INT_MAX}, {0.0, 1.0, INT_MAX});
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid->width(), INT_MAX);
  EXPECT_EQ(grid->height(), INT_MAX);
}

TEST(GridOverflowTest, PixelCountWidensToInt64) {
  // INT_MAX * INT_MAX overflows int32 ~2e9-fold; the widened product is
  // (2^31 - 1)^2 and must come back exactly.
  const Grid g = *Grid::Create({0.0, 1.0, INT_MAX}, {0.0, 1.0, INT_MAX});
  const int64_t expected =
      static_cast<int64_t>(INT_MAX) * static_cast<int64_t>(INT_MAX);
  EXPECT_EQ(g.pixel_count(), expected);
  EXPECT_GT(g.pixel_count(), 0);  // the classic overflow symptom is < 0
}

TEST(GridOverflowTest, PixelCountJustBelowIntMaxPerAxis) {
  const Grid g =
      *Grid::Create({0.0, 1.0, INT_MAX - 1}, {0.0, 1.0, 2});
  EXPECT_EQ(g.pixel_count(), 2 * (static_cast<int64_t>(INT_MAX) - 1));
}

TEST(GridOverflowTest, BucketClampsAtIntMaxAxis) {
  // LowerBucket/UpperBucket return values in [0, X]; at X = INT_MAX the
  // +1 shift downstream (BucketEndpoints) must happen in size_t. Here we
  // pin the clamp values themselves at the extreme axis.
  const GridAxis xs{0.0, 1.0, INT_MAX};
  EXPECT_EQ(LowerBucket(WorldX(-1e30), xs), 0);
  EXPECT_EQ(UpperBucket(WorldX(-1e30), xs), 0);
  EXPECT_EQ(LowerBucket(WorldX(1e30), xs), INT_MAX);
  EXPECT_EQ(UpperBucket(WorldX(1e30), xs), INT_MAX);
  // A value inside the axis still buckets normally.
  EXPECT_EQ(LowerBucket(WorldX(41.5), xs), 42);
  EXPECT_EQ(UpperBucket(WorldX(41.5), xs), 42);
}

TEST(GridOverflowTest, BucketClampsNearIntMaxBoundary) {
  // Values landing beyond pixel INT_MAX - 1 clamp to X, never wrap.
  const GridAxis xs{0.0, 1.0, INT_MAX};
  const double near_end = static_cast<double>(INT_MAX) - 0.5;
  EXPECT_EQ(LowerBucket(WorldX(near_end * 4.0), xs), INT_MAX);
  EXPECT_EQ(UpperBucket(WorldX(near_end * 4.0), xs), INT_MAX);
  EXPECT_GE(LowerBucket(WorldX(near_end), xs), 0);
  EXPECT_LE(LowerBucket(WorldX(near_end), xs), INT_MAX);
  EXPECT_GE(UpperBucket(WorldX(near_end), xs), 0);
  EXPECT_LE(UpperBucket(WorldX(near_end), xs), INT_MAX);
}

TEST(GridOverflowTest, SpaceModelDoesNotWrapAtIntMaxAxes) {
  // The analytic space model multiplies axis counts by element sizes; at
  // INT_MAX-wide grids every product must be size_t math. A wrapped
  // estimate would come back tiny (or zero) and defeat the memory budget
  // pre-flight.
  const size_t n = 1'000'000;
  for (const Method method :
       {Method::kSlamBucket, Method::kSlamSort, Method::kScan}) {
    const size_t bytes =
        EstimateAuxiliarySpaceBytes(method, n, INT_MAX, INT_MAX, 1, false);
    EXPECT_GE(bytes, EstimateAuxiliarySpaceBytes(method, n, 64, 64, 1, false))
        << "method " << static_cast<int>(method);
  }
  // SLAM_BUCKET's bucket lane scales with X: at X = INT_MAX it alone is
  // >= (2^31 + 1) * 24 * 8 bytes ~ 384 GiB. The estimate must reflect
  // that, not a wrapped 32-bit remainder.
  const size_t bucket_bytes =
      EstimateAuxiliarySpaceBytes(Method::kSlamBucket, n, INT_MAX, 64, 1,
                                  false);
  EXPECT_GT(bucket_bytes,
            static_cast<size_t>(std::numeric_limits<int32_t>::max()));
}

}  // namespace
}  // namespace slam
