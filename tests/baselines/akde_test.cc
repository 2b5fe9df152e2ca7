#include <gtest/gtest.h>

#include "kdv/engine.h"

#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;

KdvTask MakeAkdeTask(const std::vector<Point>& pts, KernelType kernel) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = 9.0;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(20, 16, 70.0);
  return task;
}

TEST(AkdeTest, ZeroEpsilonIsExact) {
  const auto pts = ClusteredPoints(700, 70.0, 4, 419);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeAkdeTask(pts, kernel);
    EngineOptions opts;
    opts.compute.akde_epsilon = 0.0;
    const auto out = ComputeKdv(task, Method::kAkde, opts);
    ASSERT_TRUE(out.ok());
    ExpectMapsNear(BruteForceDensity(task), *out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(AkdeTest, ErrorBoundedByEpsilon) {
  const auto pts = ClusteredPoints(5000, 70.0, 3, 421);
  const KdvTask task = MakeAkdeTask(pts, KernelType::kEpanechnikov);
  EngineOptions opts;
  opts.compute.akde_epsilon = 0.01;
  const auto out = ComputeKdv(task, Method::kAkde, opts);
  ASSERT_TRUE(out.ok());
  const DensityMap exact = BruteForceDensity(task);
  // Per-point midpoint error <= eps/2, n points, weight w = 1/n:
  // per-pixel density error <= w * n * eps/2 = eps/2.
  const auto cmp = *exact.CompareTo(*out);
  EXPECT_LE(cmp.max_abs_diff, 0.01 / 2.0 + 1e-12);
}

TEST(AkdeTest, SupportsGaussianKernel) {
  const auto pts = ClusteredPoints(500, 70.0, 2, 431);
  const KdvTask task = MakeAkdeTask(pts, KernelType::kGaussian);
  EngineOptions opts;
  opts.compute.akde_epsilon = 0.0;
  const auto out = ComputeKdv(task, Method::kAkde, opts);
  ASSERT_TRUE(out.ok());
  ExpectMapsNear(BruteForceDensity(task), *out, 1e-9);
}

TEST(AkdeTest, RejectsNegativeEpsilon) {
  const auto pts = ClusteredPoints(10, 70.0, 1, 433);
  const KdvTask task = MakeAkdeTask(pts, KernelType::kEpanechnikov);
  EngineOptions opts;
  opts.compute.akde_epsilon = -0.5;
  EXPECT_FALSE(ComputeKdv(task, Method::kAkde, opts).ok());
}

TEST(AkdeTest, EmptyPoints) {
  const KdvTask task = MakeAkdeTask({}, KernelType::kEpanechnikov);
  const auto out = ComputeKdv(task, Method::kAkde);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->MaxValue(), 0.0);
}

TEST(AkdeTest, HonorsDeadline) {
  const auto pts = ClusteredPoints(50000, 70.0, 5, 439);
  KdvTask task = MakeAkdeTask(pts, KernelType::kEpanechnikov);
  task.grid = MakeGrid(300, 300, 70.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  EXPECT_EQ(ComputeKdv(task, Method::kAkde, opts).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace slam
