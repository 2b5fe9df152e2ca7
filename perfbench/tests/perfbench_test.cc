// Tests of the benchmark's own bookkeeping: a corrupted raster, a shed
// request and a missed deadline each count as a failed op and never as a
// latency sample; the tail percentile needs ten ops beyond it; and the
// five-pass replay reproduces the library's sweep bit for bit.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "breakdown.h"
#include "core/rao.h"
#include "core/slam_bucket.h"
#include "data/generators.h"
#include "kdv/bandwidth.h"
#include "oplog.h"
#include "replay.h"
#include "serve/serving_core.h"

namespace perfbench {
namespace {

slam::PointDataset SmallCity() {
  auto data = slam::GenerateCityDataset(slam::City::kSeattle, 0.002, 7);
  EXPECT_TRUE(data.ok());
  return *std::move(data);
}

slam::KdvTask TaskFor(const slam::PointDataset& data, int width, int height) {
  const auto viewport = slam::Viewport::Create(data.Extent(), width, height);
  EXPECT_TRUE(viewport.ok());
  return slam::MakeTask(data, *viewport, slam::KernelType::kEpanechnikov,
                        *slam::ScottBandwidth(data.coords()));
}

TEST(OpLogTest, CorruptedRasterIsAFailureNotASample) {
  const slam::PointDataset data = SmallCity();
  const auto reference = slam::ComputeKdv(TaskFor(data, 48, 64), kMethod);
  ASSERT_TRUE(reference.ok());

  OpLog log;
  EXPECT_LE(BookChecked(*reference, *reference, 5.0, &log), kRasterTolerance);
  slam::DensityMap corrupted = *reference;
  const auto values = corrupted.mutable_values();
  const auto peak = std::max_element(values.begin(), values.end());
  *peak *= 1.0 + 1e-6;
  BookChecked(corrupted, *reference, 7.0, &log);
  *peak = std::numeric_limits<double>::quiet_NaN();
  BookChecked(corrupted, *reference, 9.0, &log);

  EXPECT_EQ(log.attempted(), 3);
  EXPECT_EQ(log.failed(), 2);
  EXPECT_EQ(log.failed(OpFailure::kWrongRaster), 2);
  EXPECT_EQ(log.samples(), 1);
  EXPECT_EQ(log.good(), 1);
  // The failed ops' time is busy time too.
  EXPECT_DOUBLE_EQ(log.BusyMs(), 21.0);
  // Two of three ops failed, so the median lands on a failure.
  EXPECT_FALSE(log.MedianMs().has_value());
}

TEST(OpLogTest, RasterWithinToleranceMatches) {
  const slam::PointDataset data = SmallCity();
  const auto reference = slam::ComputeKdv(TaskFor(data, 48, 64), kMethod);
  ASSERT_TRUE(reference.ok());
  slam::DensityMap nudged = *reference;
  for (double& v : nudged.mutable_values()) v *= 1.0 + 1e-12;
  EXPECT_TRUE(RasterMatches(nudged, *reference));
  const auto wrong_shape = slam::DensityMap::Create(64, 48);
  ASSERT_TRUE(wrong_shape.ok());
  EXPECT_FALSE(RasterMatches(*wrong_shape, *reference));
}

slam::ServingOptions SmallServing(double initial_latency_seconds) {
  slam::ServingOptions options;
  options.width_px = 32;
  options.height_px = 32;
  options.admission.initial_latency_seconds = initial_latency_seconds;
  return options;
}

TEST(OpLogTest, ShedRequestIsAFailureNotASample) {
  // Admission believes a request takes 10 s, so a 1 s deadline is
  // infeasible and shed before any work.
  auto core = slam::ServingCore::Create(SmallCity(), SmallServing(10.0));
  ASSERT_TRUE(core.ok());
  slam::RenderRequest request;
  request.deadline_seconds = 1.0;
  const auto response = (*core)->Handle(request);
  ASSERT_TRUE(response.status().IsResourceExhausted());

  OpLog log;
  const auto failure = ServedFailure(response.status(), 0.1, 1000.0);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(*failure, OpFailure::kShed);
  log.RecordFailure(*failure, 0.1);
  EXPECT_EQ(log.attempted(), 1);
  EXPECT_EQ(log.failed(OpFailure::kShed), 1);
  EXPECT_EQ(log.samples(), 0);
  EXPECT_FALSE(log.MedianMs().has_value());
}

TEST(OpLogTest, MissedDeadlineIsAFailureNotASample) {
  auto core = slam::ServingCore::Create(SmallCity(), SmallServing(0.0));
  ASSERT_TRUE(core.ok());
  slam::RenderRequest request;
  request.deadline_seconds = 1e-9;
  const auto expired = (*core)->Handle(request);
  ASSERT_TRUE(expired.status().IsDeadlineExceeded());

  request.deadline_seconds = 10.0;
  const auto answered = (*core)->Handle(request);
  ASSERT_TRUE(answered.ok());

  OpLog log;
  for (const auto& [status, latency_ms] :
       {std::pair{expired.status(), 0.01},
        // Answered, but later than a 1 ms deadline allows.
        std::pair{answered.status(), 2.0}}) {
    const auto failure = ServedFailure(status, latency_ms, 1.0);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(*failure, OpFailure::kDeadline);
    log.RecordFailure(*failure, latency_ms);
  }
  EXPECT_FALSE(ServedFailure(answered.status(), 0.5, 1.0).has_value());
  EXPECT_EQ(log.failed(OpFailure::kDeadline), 2);
  EXPECT_EQ(log.samples(), 0);
}

TEST(OpLogTest, TailNeedsTenOpsBeyondIt) {
  OpLog log;
  for (int i = 1; i <= 100; ++i) log.RecordSuccess(i, true);
  TailLatency tail = log.Tail();
  EXPECT_EQ(tail.percentile, 90.0);
  ASSERT_TRUE(tail.ms.has_value());
  EXPECT_EQ(*tail.ms, 90.0);
  ASSERT_TRUE(log.MedianMs().has_value());
  EXPECT_EQ(*log.MedianMs(), 50.5);

  // One more op, failed: 101 ops, p90 still has 10 beyond it, and the
  // failure ranks last rather than as a sample.
  log.RecordFailure(OpFailure::kShed, 1.0);
  tail = log.Tail();
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(*tail.ms, 91.0);

  OpLog few;
  for (int i = 0; i < 9; ++i) few.RecordSuccess(i, true);
  EXPECT_FALSE(few.Tail().ms.has_value());
}

TEST(OpLogTest, FailedOpLowersGoodput) {
  OpLog clean;
  clean.RecordSuccess(100.0, true);
  clean.RecordSuccess(100.0, true);
  EXPECT_DOUBLE_EQ(clean.ClosedLoopGoodput(), 10.0);

  // The same two good ops plus one that took as long and failed its check:
  // the count stays, the busy time grows.
  OpLog with_failure;
  with_failure.RecordSuccess(100.0, true);
  with_failure.RecordSuccess(100.0, true);
  with_failure.RecordFailure(OpFailure::kWrongRaster, 100.0);
  EXPECT_DOUBLE_EQ(with_failure.ClosedLoopGoodput(), 2.0 / 0.3);
  EXPECT_LT(with_failure.ClosedLoopGoodput(), clean.ClosedLoopGoodput());

  // A degraded answer is time spent without goodput.
  OpLog degraded;
  degraded.RecordSuccess(100.0, true);
  degraded.RecordSuccess(100.0, false);
  EXPECT_DOUBLE_EQ(degraded.ClosedLoopGoodput(), 5.0);
}

TEST(ReplayTest, ReproducesTheSweepBitForBit) {
  const slam::PointDataset data = SmallCity();
  for (const auto [width, height] : {std::pair{64, 48}, std::pair{48, 64}}) {
    slam::KdvTask task = TaskFor(data, width, height);
    std::optional<slam::TransposedTask> transposed;
    if (slam::RaoWouldTranspose(task)) {
      transposed.emplace(task);
      task = transposed->task();
    }
    slam::ComputeOptions options;
    slam::DensityMap swept;
    ASSERT_TRUE(slam::ComputeSlamBucket(task, options, &swept).ok());
    slam::SweepArena arena;
    slam::DensityMap replayed;
    const auto stats = ReplaySweep(task, options, &arena, &replayed);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(BitIdentical(replayed, swept));
    EXPECT_EQ(stats->lines, task.grid.height());
    EXPECT_GT(stats->envelope_points_sum, 0);
    EXPECT_EQ(stats->endpoints, 2 * stats->envelope_points_sum);
    EXPECT_LE(stats->parked_endpoints, stats->endpoints);

    replayed.mutable_values()[0] += 1.0;
    EXPECT_FALSE(BitIdentical(replayed, swept));
  }
}

}  // namespace
}  // namespace perfbench
