#include "kdv/engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/slam_bucket.h"
#include "kdv/parallel.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;

KdvTask MakeEngineTask(const std::vector<Point>& pts,
                       KernelType kernel = KernelType::kEpanechnikov) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = 8.0;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(16, 12, 50.0);
  return task;
}

TEST(MethodNameTest, RoundTripsAllMethods) {
  for (const Method m : AllMethods()) {
    EXPECT_EQ(*MethodFromName(MethodName(m)), m);
  }
  EXPECT_EQ(*MethodFromName("slam_bucket(rao)"), Method::kSlamBucketRao);
  EXPECT_EQ(*MethodFromName("ZORDER"), Method::kZorder);
  EXPECT_FALSE(MethodFromName("fft").ok());
}

TEST(MethodListsTest, SizesAndMembership) {
  EXPECT_EQ(AllMethods().size(), 10u);  // paper Table 6
  EXPECT_EQ(ExactMethods().size(), 8u);
  for (const Method m : ExactMethods()) {
    EXPECT_TRUE(MethodIsExact(m)) << MethodName(m);
  }
  EXPECT_FALSE(MethodIsExact(Method::kZorder));
  EXPECT_FALSE(MethodIsExact(Method::kAkde));
}

TEST(MethodPredicateTest, SlamDetection) {
  EXPECT_TRUE(MethodIsSlam(Method::kSlamSort));
  EXPECT_TRUE(MethodIsSlam(Method::kSlamBucketRao));
  EXPECT_FALSE(MethodIsSlam(Method::kQuad));
  EXPECT_FALSE(MethodIsSlam(Method::kScan));
}

TEST(EngineTest, ComputesWithEveryMethod) {
  const auto pts = ClusteredPoints(400, 50.0, 3, 479);
  const KdvTask task = MakeEngineTask(pts);
  for (const Method m : AllMethods()) {
    const auto result = ComputeKdv(task, m);
    ASSERT_TRUE(result.ok()) << MethodName(m) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->width(), 16);
    EXPECT_GT(result->MaxValue(), 0.0) << MethodName(m);
  }
}

TEST(EngineTest, SlamRejectsGaussianWithClearError) {
  const auto pts = ClusteredPoints(50, 50.0, 2, 487);
  const KdvTask task = MakeEngineTask(pts, KernelType::kGaussian);
  for (const Method m :
       {Method::kSlamSort, Method::kSlamBucket, Method::kSlamSortRao,
        Method::kSlamBucketRao}) {
    const auto result = ComputeKdv(task, m);
    ASSERT_FALSE(result.ok()) << MethodName(m);
    EXPECT_TRUE(result.status().IsInvalidArgument());
    EXPECT_NE(result.status().message().find("gaussian"), std::string::npos);
  }
}

TEST(EngineTest, SlamKernelRefusalIsOneMessageOnEveryEntry) {
  const auto pts = ClusteredPoints(50, 50.0, 2, 487);
  const KdvTask task = MakeEngineTask(pts, KernelType::kGaussian);
  const Status expected = CheckKernelSupportedBySlam(KernelType::kGaussian);
  ASSERT_TRUE(expected.IsInvalidArgument());
  ParallelOptions parallel;
  parallel.num_threads = 2;
  DensityMap direct;
  for (const Status& status :
       {ComputeKdv(task, Method::kSlamBucket).status(),
        ComputeKdvParallel(task, Method::kSlamBucket, parallel).status(),
        ComputeSlamBucket(task, {}, &direct)}) {
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(status.message(), expected.message());
  }
}

TEST(EngineTest, NonSlamMethodsAcceptGaussian) {
  const auto pts = ClusteredPoints(100, 50.0, 2, 491);
  const KdvTask task = MakeEngineTask(pts, KernelType::kGaussian);
  for (const Method m : {Method::kScan, Method::kRqsKd, Method::kRqsBall,
                         Method::kZorder, Method::kAkde, Method::kQuad}) {
    EXPECT_TRUE(ComputeKdv(task, m).ok()) << MethodName(m);
  }
}

TEST(EngineTest, InvalidTaskRejectedBeforeDispatch) {
  KdvTask task = MakeEngineTask({});
  task.bandwidth = 0.0;
  EXPECT_FALSE(ComputeKdv(task, Method::kScan).ok());
}

TEST(EngineTest, RecenteringDoesNotChangeResult) {
  // Same dataset shifted to large coordinates: recentered result must match
  // the locally-computed one to high precision.
  const auto pts = ClusteredPoints(300, 50.0, 3, 499);
  const KdvTask local = MakeEngineTask(pts);
  const DensityMap expected = *ComputeKdv(local, Method::kSlamBucket);

  std::vector<Point> far;
  far.reserve(pts.size());
  const double kOffset = 5.0e6;  // ~ UTM-scale coordinates
  for (const Point& p : pts) far.push_back({p.x + kOffset, p.y + kOffset});
  KdvTask far_task = local;
  far_task.points = far;
  far_task.grid = local.grid.Translated(-kOffset, -kOffset);

  EngineOptions opts;
  opts.recenter_coordinates = true;
  const DensityMap recentered =
      *ComputeKdv(far_task, Method::kSlamBucket, opts);
  ExpectMapsNear(expected, recentered, 1e-7);
}

TEST(EngineTest, DeadlinePropagatesThroughDispatch) {
  const auto pts = ClusteredPoints(50000, 50.0, 4, 503);
  KdvTask task = MakeEngineTask(pts);
  task.grid = MakeGrid(400, 400, 50.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  const auto result = ComputeKdv(task, Method::kScan, opts);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, SanitizeDropsNonFinitePoints) {
  auto pts = ClusteredPoints(200, 50.0, 2, 509);
  const KdvTask clean = MakeEngineTask(pts);
  const DensityMap expected = *ComputeKdv(clean, Method::kScan);

  auto dirty = pts;
  dirty.push_back({std::numeric_limits<double>::quiet_NaN(), 10.0});
  dirty.push_back({10.0, std::numeric_limits<double>::infinity()});
  KdvTask dirty_task = clean;
  dirty_task.points = dirty;

  // Without sanitize: hard validation error naming the point.
  const auto rejected = ComputeKdv(dirty_task, Method::kScan);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().message().find("non-finite"), std::string::npos);

  // With sanitize: the bad rows vanish and the raster matches the clean run.
  EngineOptions opts;
  opts.sanitize = true;
  const auto cleaned = ComputeKdv(dirty_task, Method::kScan, opts);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  ExpectMapsNear(expected, *cleaned, 1e-12);
}

}  // namespace
}  // namespace slam
