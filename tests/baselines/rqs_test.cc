#include <gtest/gtest.h>

#include "kdv/engine.h"

#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;
using testing::RandomPoints;

KdvTask MakeRqsTask(const std::vector<Point>& pts, KernelType kernel,
                    double bandwidth) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(20, 15, 60.0);
  return task;
}

TEST(RqsKdTest, ExactForBoundedKernels) {
  const auto pts = ClusteredPoints(800, 60.0, 4, 359);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeRqsTask(pts, kernel, 7.0);
    const auto out = ComputeKdv(task, Method::kRqsKd);
    ASSERT_TRUE(out.ok());
    ExpectMapsNear(BruteForceDensity(task), *out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(RqsBallTest, ExactForBoundedKernels) {
  const auto pts = ClusteredPoints(800, 60.0, 4, 367);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeRqsTask(pts, kernel, 7.0);
    const auto out = ComputeKdv(task, Method::kRqsBall);
    ASSERT_TRUE(out.ok());
    ExpectMapsNear(BruteForceDensity(task), *out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(RqsTest, KdAndBallAgree) {
  const auto pts = RandomPoints(500, 60.0, 373);
  const KdvTask task = MakeRqsTask(pts, KernelType::kEpanechnikov, 10.0);
  const auto kd = ComputeKdv(task, Method::kRqsKd);
  const auto ball = ComputeKdv(task, Method::kRqsBall);
  ASSERT_TRUE(kd.ok());
  ASSERT_TRUE(ball.ok());
  ExpectMapsNear(*kd, *ball, 1e-10);
}

TEST(RqsTest, TinyBandwidthFindsOnlyCoincidentPoints) {
  const std::vector<Point> pts{{30.05, 30.05}};  // near a pixel center
  const KdvTask task = MakeRqsTask(pts, KernelType::kUniform, 0.05);
  const auto out = ComputeKdv(task, Method::kRqsKd);
  ASSERT_TRUE(out.ok());
  ExpectMapsNear(BruteForceDensity(task), *out, 1e-12);
}

TEST(RqsTest, EmptyPoints) {
  const KdvTask task = MakeRqsTask({}, KernelType::kQuartic, 5.0);
  const auto kd = ComputeKdv(task, Method::kRqsKd);
  const auto ball = ComputeKdv(task, Method::kRqsBall);
  ASSERT_TRUE(kd.ok());
  ASSERT_TRUE(ball.ok());
  EXPECT_EQ(kd->MaxValue(), 0.0);
  EXPECT_EQ(ball->MaxValue(), 0.0);
}

TEST(RqsTest, HonorsDeadline) {
  const auto pts = RandomPoints(50000, 60.0, 379);
  KdvTask task = MakeRqsTask(pts, KernelType::kEpanechnikov, 30.0);
  task.grid = MakeGrid(300, 300, 60.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  EXPECT_EQ(ComputeKdv(task, Method::kRqsKd, opts).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ComputeKdv(task, Method::kRqsBall, opts).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(RqsTest, RejectsInvalidTask) {
  const std::vector<Point> pts{{0, 0}};
  KdvTask task = MakeRqsTask(pts, KernelType::kUniform, 5.0);
  task.grid = Grid{};
  EXPECT_FALSE(ComputeKdv(task, Method::kRqsKd).ok());
  EXPECT_FALSE(ComputeKdv(task, Method::kRqsBall).ok());
}

}  // namespace
}  // namespace slam
