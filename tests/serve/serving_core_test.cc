#include "serve/serving_core.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "kdv/engine.h"
#include "util/exec_context.h"

namespace slam {
namespace {

PointDataset ServeData() {
  return *GenerateCityDataset(City::kSeattle, 0.003, 11);  // ~2.6k points
}

ServingOptions SmallOptions() {
  ServingOptions options;
  options.width_px = 40;
  options.height_px = 30;
  options.degrade_mode = DegradeMode::kSample;
  options.max_halvings = 1;
  options.retry.max_attempts = 2;
  options.retry.backoff.initial_seconds = 0.001;
  options.retry.backoff.max_seconds = 0.004;
  options.breaker.window_size = 8;
  options.breaker.min_samples = 4;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_cooldown_seconds = 60.0;  // stays open for the test
  return options;
}

TEST(ServingCoreTest, CreateValidation) {
  EXPECT_TRUE(ServingCore::Create(PointDataset("empty"), SmallOptions())
                  .status()
                  .IsInvalidArgument());
  ServingOptions bad = SmallOptions();
  bad.width_px = 0;
  EXPECT_TRUE(
      ServingCore::Create(ServeData(), bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.retry.max_attempts = 0;
  EXPECT_TRUE(
      ServingCore::Create(ServeData(), bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.bandwidth = -1.0;
  EXPECT_TRUE(
      ServingCore::Create(ServeData(), bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.admission.max_concurrent = 0;
  EXPECT_TRUE(
      ServingCore::Create(ServeData(), bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.breaker.failure_threshold = 2.0;
  EXPECT_TRUE(
      ServingCore::Create(ServeData(), bad).status().IsInvalidArgument());
}

TEST(ServingCoreTest, ServesFullFidelityByDefault) {
  auto core = *ServingCore::Create(ServeData(), SmallOptions());
  const auto response = core->Handle({});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->fidelity, Fidelity::kFull);
  EXPECT_EQ(response->degrade_level, 0);
  EXPECT_EQ(response->map.width(), 40);
  EXPECT_GE(response->latency_seconds, 0.0);
  const ServingStats stats = core->stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.ok_full, 1);
  EXPECT_EQ(stats.ok_degraded + stats.shed + stats.failed, 0);
}

TEST(ServingCoreTest, GenerousDeadlineStillServesFull) {
  auto core = *ServingCore::Create(ServeData(), SmallOptions());
  RenderRequest request;
  request.deadline_seconds = 30.0;
  const auto response = core->Handle(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->fidelity, Fidelity::kFull);
  EXPECT_LE(response->latency_seconds, 30.0);
}

TEST(ServingCoreTest, InfeasibleDeadlineIsShedBeforeAnyWork) {
  ServingOptions options = SmallOptions();
  options.admission.initial_latency_seconds = 1.0;  // "service takes ~1s"
  auto core = *ServingCore::Create(ServeData(), options);
  RenderRequest request;
  request.deadline_seconds = 0.02;
  const auto response = core->Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted());
  EXPECT_EQ(core->stats().shed, 1);
  EXPECT_EQ(core->admission_stats().shed_infeasible, 1);
}

TEST(ServingCoreTest, CallerCancellationSurfacesAndIsCounted) {
  auto core = *ServingCore::Create(ServeData(), SmallOptions());
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  RenderRequest request;
  request.exec = &exec;
  const auto response = core->Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsCancelled());
  EXPECT_EQ(core->stats().cancelled, 1);
  // A caller-cancelled request must not count against the breaker.
  EXPECT_EQ(core->breaker_state(), BreakerState::kClosed);
}

TEST(ServingCoreTest, MemoryPressureServesDegradedAndTagsIt) {
  ServingOptions options = SmallOptions();
  options.width_px = 400;
  options.height_px = 300;
  options.method = Method::kSlamBucket;
  options.degrade_mode = DegradeMode::kHalfRes;
  const PointDataset data = ServeData();
  const size_t full = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, data.size(), 400, 300, 1, false);
  const size_t half = EstimateAuxiliarySpaceBytes(
      Method::kSlamBucket, data.size(), 200, 150, 1, false);
  ASSERT_LT(half, full);
  MemoryBudget budget((half + full) / 2);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  auto core = *ServingCore::Create(data, options);
  RenderRequest request;
  request.exec = &exec;
  const auto response = core->Handle(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->fidelity, Fidelity::kHalfRes);
  EXPECT_EQ(response->degrade_level, 1);
  EXPECT_EQ(response->map.width(), 200);
  EXPECT_EQ(core->stats().ok_degraded, 1);
  EXPECT_EQ(core->stats().ok_full, 0);
}

TEST(ServingCoreTest, BreakerOpensOnFailuresAndShedsWhenDegradeOff) {
  ServingOptions options = SmallOptions();
  options.degrade_mode = DegradeMode::kOff;
  options.retry.max_attempts = 1;
  auto core = *ServingCore::Create(ServeData(), options);

  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmProbabilistic("engine/start", 1.0,
                                    Status::IoError("injected outage"))
                  .ok());
  ExecContext exec;
  exec.set_fault_injector(&injector);
  RenderRequest faulty;
  faulty.exec = &exec;
  // min_samples failures trip the breaker (rate 4/4 >= 0.5).
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(core->Handle(faulty).status().IsIoError()) << i;
  }
  EXPECT_EQ(core->breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(core->breaker_stats().opened, 1);

  // Degradation is off: an open breaker sheds even healthy requests.
  const auto shed = core->Handle({});
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  const ServingStats stats = core->stats();
  EXPECT_EQ(stats.failed, 4);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_GE(core->breaker_stats().rejected, 1);
}

TEST(ServingCoreTest, BreakerOpenServesDegradedWhenLadderAllows) {
  ServingOptions options = SmallOptions();  // degrade: kSample, 1 halving
  options.retry.max_attempts = 1;
  auto core = *ServingCore::Create(ServeData(), options);

  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmProbabilistic("engine/start", 1.0,
                                    Status::IoError("injected outage"))
                  .ok());
  ExecContext exec;
  exec.set_fault_injector(&injector);
  RenderRequest faulty;
  faulty.exec = &exec;
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(core->Handle(faulty).ok()) << i;
  }
  ASSERT_EQ(core->breaker_state(), BreakerState::kOpen);

  // A healthy request during the outage window is answered — degraded,
  // never at full fidelity, and honestly tagged.
  const auto response = core->Handle({});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->fidelity, Fidelity::kFull);
  EXPECT_GE(response->degrade_level, 1);
  EXPECT_EQ(core->stats().ok_degraded, 1);
  // The request bypassed the breaker (not admitted by it), so the breaker
  // saw no outcome and stays open.
  EXPECT_EQ(core->breaker_state(), BreakerState::kOpen);
}

TEST(ServingCoreTest, ConcurrentRequestsAllServed) {
  ServingOptions options = SmallOptions();
  options.admission.max_concurrent = 4;
  options.admission.max_queue_depth = 64;
  auto core = *ServingCore::Create(ServeData(), options);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&core, &ok] {
      for (int i = 0; i < 10; ++i) {
        RenderRequest request;
        request.deadline_seconds = 30.0;
        if (core->Handle(request).ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 80);
  const ServingStats stats = core->stats();
  EXPECT_EQ(stats.requests, 80);
  EXPECT_EQ(stats.ok_full + stats.ok_degraded, 80);
}

}  // namespace
}  // namespace slam
