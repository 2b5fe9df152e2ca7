#include <gtest/gtest.h>

#include "kdv/engine.h"

#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;

KdvTask MakeQuadTask(const std::vector<Point>& pts, KernelType kernel,
                     double bandwidth = 9.0) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(20, 16, 70.0);
  return task;
}

TEST(QuadTest, DefaultModeIsExactForBoundedKernels) {
  const auto pts = ClusteredPoints(900, 70.0, 5, 443);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeQuadTask(pts, kernel);
    const auto out = ComputeKdv(task, Method::kQuad);
    ASSERT_TRUE(out.ok());
    ExpectMapsNear(BruteForceDensity(task), *out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(QuadTest, GaussianFallsBackToBoundTraversal) {
  const auto pts = ClusteredPoints(400, 70.0, 2, 449);
  const KdvTask task = MakeQuadTask(pts, KernelType::kGaussian);
  const auto out = ComputeKdv(task, Method::kQuad);
  ASSERT_TRUE(out.ok());
  ExpectMapsNear(BruteForceDensity(task), *out, 1e-9);
}

TEST(QuadTest, EpsilonModeBounded) {
  const auto pts = ClusteredPoints(5000, 70.0, 3, 457);
  const KdvTask task = MakeQuadTask(pts, KernelType::kEpanechnikov);
  EngineOptions opts;
  opts.compute.quad_epsilon = 0.02;
  const auto out = ComputeKdv(task, Method::kQuad, opts);
  ASSERT_TRUE(out.ok());
  const DensityMap exact = BruteForceDensity(task);
  const auto cmp = *exact.CompareTo(*out);
  EXPECT_LE(cmp.max_abs_diff, 0.02 / 2.0 + 1e-12);
}

TEST(QuadTest, RejectsNegativeEpsilon) {
  const auto pts = ClusteredPoints(10, 70.0, 1, 461);
  const KdvTask task = MakeQuadTask(pts, KernelType::kUniform);
  EngineOptions opts;
  opts.compute.quad_epsilon = -1.0;
  EXPECT_FALSE(ComputeKdv(task, Method::kQuad, opts).ok());
}

TEST(QuadTest, LargeBandwidthUsesWholeNodeAggregates) {
  // With b covering the whole extent, the root is fully inside every query
  // disk and the density must still be exact.
  const auto pts = ClusteredPoints(600, 70.0, 4, 463);
  const KdvTask task = MakeQuadTask(pts, KernelType::kQuartic, 500.0);
  const auto out = ComputeKdv(task, Method::kQuad);
  ASSERT_TRUE(out.ok());
  ExpectMapsNear(BruteForceDensity(task), *out, 1e-9);
}

TEST(QuadTest, EmptyPoints) {
  const KdvTask task = MakeQuadTask({}, KernelType::kEpanechnikov);
  const auto out = ComputeKdv(task, Method::kQuad);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->MaxValue(), 0.0);
}

TEST(QuadTest, HonorsDeadline) {
  const auto pts = ClusteredPoints(50000, 70.0, 5, 467);
  KdvTask task = MakeQuadTask(pts, KernelType::kEpanechnikov);
  task.grid = MakeGrid(400, 400, 70.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  EngineOptions opts;
  opts.compute.exec = &exec;
  EXPECT_EQ(ComputeKdv(task, Method::kQuad, opts).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace slam
