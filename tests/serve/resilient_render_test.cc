#include "serve/resilient_render.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "kdv/bandwidth.h"
#include "kdv/engine.h"
#include "util/exec_context.h"

namespace slam {
namespace {

PointDataset ServeData() {
  return *GenerateCityDataset(City::kSeattle, 0.003, 11);  // ~2.6k points
}

ResilientRenderParams SmallParams(const PointDataset& data) {
  ResilientRenderParams params;
  params.data = &data;
  params.region = data.Extent();
  params.width_px = 40;
  params.height_px = 30;
  params.bandwidth = *ScottBandwidth(data.coords());
  params.degrade_mode = DegradeMode::kSample;
  params.max_halvings = 1;
  params.retry.max_attempts = 2;
  params.retry.backoff.initial_seconds = 0.001;
  params.retry.backoff.max_seconds = 0.004;
  return params;
}

TEST(ResilientRenderTest, SucceedsAtFullResolutionWithoutFaults) {
  const PointDataset data = ServeData();
  const auto outcome = RenderResilient(SmallParams(data), nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->fidelity, Fidelity::kFull);
  EXPECT_EQ(outcome->degrade_level, 0);
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_EQ(outcome->retries, 0);
  EXPECT_EQ(outcome->map.width(), 40);
  EXPECT_EQ(outcome->map.height(), 30);
}

TEST(ResilientRenderTest, RejectsBadParams) {
  const PointDataset data = ServeData();
  ResilientRenderParams params = SmallParams(data);
  params.data = nullptr;
  EXPECT_TRUE(RenderResilient(params, nullptr).status().IsInvalidArgument());
  params = SmallParams(data);
  params.retry.max_attempts = 0;
  EXPECT_TRUE(RenderResilient(params, nullptr).status().IsInvalidArgument());
}

TEST(ResilientRenderTest, PermanentFaultExhaustsRetriesAndLadder) {
  const PointDataset data = ServeData();
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmProbabilistic("engine/start", 1.0,
                                    Status::IoError("injected"))
                  .ok());
  ExecContext exec;
  exec.set_fault_injector(&injector);
  ResilientRenderParams params = SmallParams(data);
  params.engine.compute.exec = &exec;
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsIoError());
  // Ladder: full, one halving, sampled rung = 3 rungs; 2 attempts each.
  EXPECT_EQ(injector.InjectedCount(), 6);
}

TEST(ResilientRenderTest, TransientFaultIsRetriedToSuccess) {
  const PointDataset data = ServeData();
  FaultInjector injector(/*seed=*/123);
  ASSERT_TRUE(injector
                  .ArmProbabilistic("engine/start", 0.5,
                                    Status::IoError("flaky"))
                  .ok());
  ExecContext exec;
  exec.set_fault_injector(&injector);
  ResilientRenderParams params = SmallParams(data);
  params.engine.compute.exec = &exec;
  params.retry.max_attempts = 5;
  // P(every attempt on every rung faults) = 0.5^15 for the fixed seed
  // stream: this must come back OK, and any retries must be counted.
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Every attempt is either a rung's first try or a retry: rungs tried =
  // degrade_level + 1 (the loop never skips a rung when start_level is 0).
  EXPECT_EQ(outcome->attempts, outcome->retries + outcome->degrade_level + 1);
}

TEST(ResilientRenderTest, CancellationIsFinalNoRetryNoDegrade) {
  const PointDataset data = ServeData();
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  ResilientRenderParams params = SmallParams(data);
  params.engine.compute.exec = &exec;
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCancelled());
}

TEST(ResilientRenderTest, ExpiredDeadlineFailsFastAsDeadlineExceeded) {
  const PointDataset data = ServeData();
  const Deadline expired(0.0);
  FaultInjector injector;  // pure hit counter
  ExecContext exec;
  exec.set_fault_injector(&injector);
  ResilientRenderParams params = SmallParams(data);
  params.engine.compute.exec = &exec;
  const auto outcome = RenderResilient(params, &expired);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());
  // One entry checkpoint, no sweep work, no descent through the ladder.
  EXPECT_LE(injector.HitCount("*"), 1);
}

TEST(ResilientRenderTest, MemoryPressureDegradesToHalfResolution) {
  const PointDataset data = ServeData();
  ResilientRenderParams params = SmallParams(data);
  params.width_px = 400;
  params.height_px = 300;
  params.method = Method::kSlamBucket;
  params.degrade_mode = DegradeMode::kHalfRes;
  const size_t full = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, data.size(), 400, 300, 1, false);
  const size_t half = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, data.size(), 200, 150, 1, false);
  ASSERT_LT(half, full);
  MemoryBudget budget((half + full) / 2);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  params.engine.compute.exec = &exec;
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->fidelity, Fidelity::kHalfRes);
  EXPECT_EQ(outcome->degrade_level, 1);
  EXPECT_EQ(outcome->map.width(), 200);
  EXPECT_EQ(outcome->map.height(), 150);
}

TEST(ResilientRenderTest, StartLevelSkipsFullResolution) {
  const PointDataset data = ServeData();
  ResilientRenderParams params = SmallParams(data);
  params.degrade_mode = DegradeMode::kHalfRes;
  params.start_level = 1;
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->degrade_level, 1);
  EXPECT_EQ(outcome->fidelity, Fidelity::kHalfRes);
  EXPECT_EQ(outcome->map.width(), 20);
  EXPECT_EQ(outcome->map.height(), 15);
}

TEST(ResilientRenderTest, SampledRungUsesZorderAtCoarsestResolution) {
  const PointDataset data = ServeData();
  ResilientRenderParams params = SmallParams(data);
  params.start_level = 2;  // past the single halving: the sampled rung
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->fidelity, Fidelity::kSampled);
  EXPECT_EQ(outcome->map.width(), 20);
  EXPECT_EQ(outcome->map.height(), 15);
}

TEST(ResilientRenderTest, DegradeOffMeansSingleRung) {
  const PointDataset data = ServeData();
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmProbabilistic("engine/start", 1.0,
                                    Status::IoError("injected"))
                  .ok());
  ExecContext exec;
  exec.set_fault_injector(&injector);
  ResilientRenderParams params = SmallParams(data);
  params.engine.compute.exec = &exec;
  params.degrade_mode = DegradeMode::kOff;
  params.retry.max_attempts = 1;
  const auto outcome = RenderResilient(params, nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(injector.InjectedCount(), 1);  // one rung, one attempt
}

}  // namespace
}  // namespace slam
