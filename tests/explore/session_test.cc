#include "explore/session.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/generators.h"
#include "util/exec_context.h"

namespace slam {
namespace {

PointDataset SessionData() {
  return *GenerateCityDataset(City::kSeattle, 0.003, 11);  // ~2.6k points
}

SessionConfig SmallConfig() {
  SessionConfig cfg;
  cfg.width_px = 40;
  cfg.height_px = 30;
  return cfg;
}

TEST(SessionTest, CreateDerivesScottBandwidth) {
  const auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  EXPECT_GT(session.bandwidth(), 0.0);
  EXPECT_EQ(session.method(), Method::kSlamBucketRao);
  EXPECT_EQ(session.total_points(), SessionData().size());
  EXPECT_TRUE(session.viewport().region() == SessionData().Extent());
}

TEST(SessionTest, CreateHonorsExplicitBandwidth) {
  SessionConfig cfg = SmallConfig();
  cfg.bandwidth = 777.0;
  const auto session = *ExplorerSession::Create(SessionData(), cfg);
  EXPECT_DOUBLE_EQ(session.bandwidth(), 777.0);
}

TEST(SessionTest, CreateValidation) {
  EXPECT_FALSE(ExplorerSession::Create(PointDataset("e"), SmallConfig()).ok());
  SessionConfig bad = SmallConfig();
  bad.width_px = 0;
  EXPECT_FALSE(ExplorerSession::Create(SessionData(), bad).ok());
  bad = SmallConfig();
  bad.bandwidth = -5.0;
  EXPECT_FALSE(ExplorerSession::Create(SessionData(), bad).ok());
}

TEST(SessionTest, RenderProducesHotspots) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const auto map = *session.Render();
  EXPECT_EQ(map.width(), 40);
  EXPECT_EQ(map.height(), 30);
  EXPECT_GT(map.MaxValue(), 0.0);
}

TEST(SessionTest, ZoomShrinksRegionKeepsResolution) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const double w0 = session.viewport().region().width();
  ASSERT_TRUE(session.Zoom(0.5).ok());
  EXPECT_NEAR(session.viewport().region().width(), w0 * 0.5, 1e-9);
  EXPECT_EQ(session.viewport().width_px(), 40);
  const auto map = *session.Render();
  EXPECT_GT(map.MaxValue(), 0.0);
}

TEST(SessionTest, PanMovesByFractionOfView) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const BoundingBox before = session.viewport().region();
  ASSERT_TRUE(session.Pan(0.5, -0.25).ok());
  const BoundingBox after = session.viewport().region();
  EXPECT_NEAR(after.min().x - before.min().x, before.width() * 0.5, 1e-9);
  EXPECT_NEAR(after.min().y - before.min().y, -before.height() * 0.25, 1e-9);
}

TEST(SessionTest, ResetViewRestoresFilteredMbr) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  ASSERT_TRUE(session.Zoom(0.25).ok());
  ASSERT_TRUE(session.ResetView().ok());
  EXPECT_TRUE(session.viewport().region() ==
              session.active_data().Extent());
}

TEST(SessionTest, TimeFilterShrinksActiveData) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const size_t all = session.active_data().size();
  ASSERT_TRUE(session.SetFilter(Year2019Filter()).ok());
  const size_t filtered = session.active_data().size();
  EXPECT_LT(filtered, all);
  EXPECT_GT(filtered, 0u);
  // Clearing restores everything.
  ASSERT_TRUE(session.SetFilter(EventFilter{}).ok());
  EXPECT_EQ(session.active_data().size(), all);
}

TEST(SessionTest, CategoryFilterSelectsSubset) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  EventFilter f;
  f.categories = {0};
  ASSERT_TRUE(session.SetFilter(f).ok());
  for (size_t i = 0; i < session.active_data().size(); ++i) {
    EXPECT_EQ(session.active_data().category(i), 0);
  }
}

TEST(SessionTest, BandwidthControls) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const double b0 = session.bandwidth();
  ASSERT_TRUE(session.ScaleBandwidth(2.0).ok());
  EXPECT_DOUBLE_EQ(session.bandwidth(), 2.0 * b0);
  ASSERT_TRUE(session.SetBandwidth(123.0).ok());
  EXPECT_DOUBLE_EQ(session.bandwidth(), 123.0);
  EXPECT_FALSE(session.ScaleBandwidth(0.0).ok());
  EXPECT_FALSE(session.SetBandwidth(-1.0).ok());
}

TEST(SessionTest, KernelMethodCompatibilityGuard) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  // SLAM method active: Gaussian kernel must be rejected.
  EXPECT_FALSE(session.SetKernel(KernelType::kGaussian).ok());
  // Switch to SCAN, then Gaussian is fine, but switching back to SLAM isn't.
  ASSERT_TRUE(session.SetMethod(Method::kScan).ok());
  ASSERT_TRUE(session.SetKernel(KernelType::kGaussian).ok());
  EXPECT_FALSE(session.SetMethod(Method::kSlamBucket).ok());
  // Back to a supported kernel unlocks SLAM again.
  ASSERT_TRUE(session.SetKernel(KernelType::kQuartic).ok());
  ASSERT_TRUE(session.SetMethod(Method::kSlamBucket).ok());
}

TEST(SessionTest, RendersAgreeAcrossMethodsAfterExploration) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  ASSERT_TRUE(session.SetFilter(Year2019Filter()).ok());
  ASSERT_TRUE(session.Zoom(0.5).ok());
  ASSERT_TRUE(session.Pan(0.1, 0.1).ok());
  ASSERT_TRUE(session.SetMethod(Method::kSlamBucketRao).ok());
  const auto slam_map = *session.Render();
  ASSERT_TRUE(session.SetMethod(Method::kScan).ok());
  const auto scan_map = *session.Render();
  const auto cmp = *scan_map.CompareTo(slam_map);
  EXPECT_LT(cmp.max_abs_diff, 1e-9 * std::max(1.0, scan_map.MaxValue()));
}

TEST(SessionTest, ZoomRejectsBadRatio) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  EXPECT_FALSE(session.Zoom(-2.0).ok());
  EXPECT_TRUE(session.Zoom(0.0).IsInvalidArgument());
  EXPECT_TRUE(session.Zoom(std::numeric_limits<double>::quiet_NaN())
                  .IsInvalidArgument());
  EXPECT_TRUE(session.Zoom(std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  // A failed zoom leaves the viewport untouched.
  const BoundingBox before = session.viewport().region();
  ASSERT_FALSE(session.Zoom(0.0).ok());
  EXPECT_TRUE(session.viewport().region() == before);
}

TEST(SessionTest, BandwidthRejectsNonFinite) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const double b0 = session.bandwidth();
  EXPECT_TRUE(session.SetBandwidth(std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_TRUE(session.SetBandwidth(std::numeric_limits<double>::quiet_NaN())
                  .IsInvalidArgument());
  EXPECT_TRUE(session.ScaleBandwidth(std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_DOUBLE_EQ(session.bandwidth(), b0);
}

TEST(SessionTest, RenderAdaptiveFullResolutionByDefault) {
  auto session = *ExplorerSession::Create(SessionData(), SmallConfig());
  const auto outcome = session.RenderAdaptive();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->degrade_level, 0);
  EXPECT_TRUE(outcome->full_res_status.ok());
  EXPECT_EQ(outcome->map.width(), 40);
  EXPECT_EQ(outcome->map.height(), 30);
}

TEST(SessionTest, RenderAdaptiveDegradesUnderMemoryPressure) {
  // SLAM_BUCKET's auxiliary estimate grows with raster width, so a budget
  // between the half-resolution and full-resolution estimates forces
  // exactly one degradation step.
  SessionConfig cfg = SmallConfig();
  cfg.width_px = 400;
  cfg.height_px = 300;
  cfg.method = Method::kSlamBucket;
  auto session = *ExplorerSession::Create(SessionData(), cfg);
  const size_t n = session.active_data().size();
  const size_t full = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, n, cfg.width_px, cfg.height_px, 1, false);
  const size_t half = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, n, cfg.width_px / 2, cfg.height_px / 2, 1, false);
  ASSERT_LT(half, full);
  MemoryBudget budget((half + full) / 2);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  cfg.engine.compute.exec = &exec;
  session = *ExplorerSession::Create(SessionData(), cfg);

  // Plain Render fails outright under the same budget...
  EXPECT_EQ(session.Render().status().code(), StatusCode::kResourceExhausted);
  // ...while RenderAdaptive falls back to half resolution and reports why.
  const auto outcome = session.RenderAdaptive();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->degrade_level, 1);
  EXPECT_EQ(outcome->full_res_status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(outcome->map.width(), 200);
  EXPECT_EQ(outcome->map.height(), 150);
}

TEST(SessionTest, RenderAdaptiveHonorsExplicitCancellation) {
  SessionConfig cfg = SmallConfig();
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  cfg.engine.compute.exec = &exec;
  auto session = *ExplorerSession::Create(SessionData(), cfg);
  // The user's own token is tripped: no degraded retry, just Cancelled.
  const auto outcome = session.RenderAdaptive();
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
}

TEST(SessionTest, RenderAdaptiveGivesUpAfterBoundedRetries) {
  SessionConfig cfg = SmallConfig();
  cfg.max_degrade_retries = 1;
  MemoryBudget budget(1);  // nothing fits, ever
  ExecContext exec;
  exec.set_memory_budget(&budget);
  cfg.engine.compute.exec = &exec;
  auto session = *ExplorerSession::Create(SessionData(), cfg);
  const auto outcome = session.RenderAdaptive();
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace slam
