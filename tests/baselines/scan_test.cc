#include <gtest/gtest.h>

#include "kdv/engine.h"

#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ExpectMapsNear;
using testing::MakeGrid;
using testing::RandomPoints;

KdvTask MakeScanTask(const std::vector<Point>& pts, KernelType kernel) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = 5.0;
  task.weight = 0.01;
  task.grid = MakeGrid(16, 12, 40.0);
  return task;
}

TEST(ScanTest, MatchesIndependentBruteForce) {
  const auto pts = RandomPoints(300, 40.0, 347);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov, KernelType::kQuartic,
        KernelType::kGaussian}) {
    const KdvTask task = MakeScanTask(pts, kernel);
    const auto out = ComputeKdv(task, Method::kScan);
    ASSERT_TRUE(out.ok());
    ExpectMapsNear(BruteForceDensity(task), *out, 1e-12,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(ScanTest, SupportsGaussianUnlikeSlam) {
  const auto pts = RandomPoints(50, 40.0, 349);
  const KdvTask task = MakeScanTask(pts, KernelType::kGaussian);
  const auto out = ComputeKdv(task, Method::kScan);
  ASSERT_TRUE(out.ok());
  // Gaussian has unbounded support: strictly positive everywhere.
  EXPECT_GT(out->MinValue(), 0.0);
}

TEST(ScanTest, EmptyPoints) {
  const KdvTask task = MakeScanTask({}, KernelType::kEpanechnikov);
  const auto out = ComputeKdv(task, Method::kScan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->MaxValue(), 0.0);
}

TEST(ScanTest, RejectsInvalidTask) {
  const std::vector<Point> pts{{0, 0}};
  KdvTask task = MakeScanTask(pts, KernelType::kUniform);
  task.weight = -1.0;
  EXPECT_FALSE(ComputeKdv(task, Method::kScan).ok());
}

TEST(ScanTest, HonorsDeadline) {
  const auto pts = RandomPoints(50000, 40.0, 353);
  KdvTask task = MakeScanTask(pts, KernelType::kEpanechnikov);
  task.grid = MakeGrid(200, 200, 40.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  EXPECT_EQ(ComputeKdv(task, Method::kScan, opts).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace slam
