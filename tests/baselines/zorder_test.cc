#include <gtest/gtest.h>

#include "kdv/engine.h"

#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::MakeGrid;

KdvTask MakeZTask(const std::vector<Point>& pts) {
  KdvTask task;
  task.points = pts;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 12.0;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(24, 18, 80.0);
  return task;
}

TEST(ZorderTest, ApproximatesExactDensity) {
  const auto pts = ClusteredPoints(20000, 80.0, 5, 383);
  const KdvTask task = MakeZTask(pts);
  EngineOptions opts;
  opts.compute.zorder_epsilon = 0.05;
  const auto out = ComputeKdv(task, Method::kZorder, opts);
  ASSERT_TRUE(out.ok());
  const DensityMap exact = BruteForceDensity(task);
  // Error should be a small fraction of the density scale.
  const auto cmp = *exact.CompareTo(*out);
  EXPECT_LT(cmp.max_abs_diff, 0.25 * exact.MaxValue());
  // And the total mass should be close (sampling is unbiased-ish).
  EXPECT_NEAR(out->Sum() / exact.Sum(), 1.0, 0.15);
}

TEST(ZorderTest, SmallerEpsilonIsMoreAccurate) {
  const auto pts = ClusteredPoints(20000, 80.0, 5, 389);
  const KdvTask task = MakeZTask(pts);
  const DensityMap exact = BruteForceDensity(task);
  double prev_err = -1.0;
  for (const double eps : {0.2, 0.05, 0.01}) {
    EngineOptions opts;
    opts.compute.zorder_epsilon = eps;
    const auto out = ComputeKdv(task, Method::kZorder, opts);
    ASSERT_TRUE(out.ok());
    double err = 0.0;
    for (size_t i = 0; i < out->values().size(); ++i) {
      err += std::abs(out->values()[i] - exact.values()[i]);
    }
    if (prev_err >= 0.0) {
      EXPECT_LT(err, prev_err * 1.2);  // allow slack; trend must hold
    }
    prev_err = err;
  }
}

TEST(ZorderTest, EpsilonCoveringWholeDatasetIsExact) {
  // Sample size >= n -> the "sample" is the full dataset -> exact result.
  const auto pts = ClusteredPoints(400, 80.0, 3, 397);
  const KdvTask task = MakeZTask(pts);
  EngineOptions opts;
  opts.compute.zorder_epsilon = 0.01;  // 1/eps^2 = 10000 > 400
  const auto out = ComputeKdv(task, Method::kZorder, opts);
  ASSERT_TRUE(out.ok());
  testing::ExpectMapsNear(BruteForceDensity(task), *out, 1e-9);
}

TEST(ZorderTest, RejectsBadEpsilon) {
  const auto pts = ClusteredPoints(100, 80.0, 2, 401);
  const KdvTask task = MakeZTask(pts);
  EngineOptions opts;
  opts.compute.zorder_epsilon = 0.0;
  EXPECT_FALSE(ComputeKdv(task, Method::kZorder, opts).ok());
  opts.compute.zorder_epsilon = 1.5;
  EXPECT_FALSE(ComputeKdv(task, Method::kZorder, opts).ok());
}

TEST(ZorderTest, EmptyPoints) {
  const KdvTask task = MakeZTask({});
  const auto out = ComputeKdv(task, Method::kZorder);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->MaxValue(), 0.0);
}

TEST(ZorderTest, PreservesTotalWeightScale) {
  // With m samples of weight n/m each, a pixel far from everything is 0 and
  // the hotspot magnitude stays on the same scale as exact.
  const auto pts = ClusteredPoints(5000, 80.0, 1, 409);
  const KdvTask task = MakeZTask(pts);
  EngineOptions opts;
  opts.compute.zorder_epsilon = 0.1;
  const auto out = ComputeKdv(task, Method::kZorder, opts);
  ASSERT_TRUE(out.ok());
  const DensityMap exact = BruteForceDensity(task);
  EXPECT_NEAR(out->MaxValue() / exact.MaxValue(), 1.0, 0.3);
}

}  // namespace
}  // namespace slam
