// TSan-targeted stress tests for the parallel layer: these exist to give
// ThreadSanitizer (scripts/check_sanitize.sh tsan) maximal interleaving
// coverage of the two concurrency protocols the stripe scheduler relies
// on — first-error-wins cancellation and thread-pool lifecycle — not to
// assert new functional behavior. They run in every configuration, but
// their teeth are the TSan lane in CI.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kdv/parallel.h"
#include "testing/test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;

KdvTask MakeStressTask(const std::vector<Point>& pts, int width, int height) {
  KdvTask task;
  task.points = pts;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 8.0;
  task.weight = 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(width, height, 60.0);
  return task;
}

TEST(ParallelStressTest, FirstErrorWinsHammer) {
  // 100 rounds of: N worker threads, a fault injected on a random stripe
  // checkpoint, every sibling expected to stop via the chained token. Any
  // unlocked access in the collector / token / pool shows up as a TSan
  // race report; functionally, the injected error (never a secondary
  // Cancelled) must win every round.
  const auto pts = ClusteredPoints(500, 60.0, 3, 701);
  // 120 rows, at least 2*threads for threads in 2..5, and the engine cuts
  // exactly min(rows, 2*threads) stripes, so every armed checkpoint below
  // is guaranteed to be reached.
  const KdvTask task = MakeStressTask(pts, 16, 120);
  Rng rng(702);
  for (int round = 0; round < 100; ++round) {
    FaultInjector injector;
    const int num_threads = 2 + static_cast<int>(rng.NextBelow(4));  // 2..5
    // Trip a random one of the 2*threads stripe entry checkpoints.
    const auto fault_after = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(2 * num_threads)));
    injector.Arm("parallel/stripe", fault_after,
                 Status::IoError("hammer fault"));
    ExecContext exec;
    exec.set_fault_injector(&injector);
    ParallelOptions options;
    options.num_threads = num_threads;
    options.engine.compute.exec = &exec;
    const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
    ASSERT_FALSE(map.ok()) << "round " << round;
    EXPECT_EQ(map.status().code(), StatusCode::kIoError)
        << "round " << round << ": " << map.status().ToString();
  }
}

TEST(ParallelStressTest, CancelRaceWithCompletion) {
  // Race the caller's token against natural completion: on a tiny task the
  // stripes may win, so either outcome is legal — what TSan checks is that
  // the token reads/writes and the raster writes never race.
  const auto pts = ClusteredPoints(200, 60.0, 2, 703);
  const KdvTask task = MakeStressTask(pts, 16, 16);
  for (int round = 0; round < 100; ++round) {
    CancellationToken token;
    ExecContext exec;
    exec.set_cancellation(&token);
    ParallelOptions options;
    options.num_threads = 4;
    options.engine.compute.exec = &exec;
    std::thread canceller([&token] { token.Cancel(); });
    const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
    canceller.join();
    if (!map.ok()) {
      EXPECT_EQ(map.status().code(), StatusCode::kCancelled)
          << "round " << round;
    }
  }
}

TEST(ParallelStressTest, ThreadPoolChurn) {
  // Construct/submit/destroy churn: a fresh pool per round, a burst of
  // tasks, destruction immediately after Wait (and sometimes with no Wait
  // at all — the destructor must drain safely on its own).
  std::atomic<int64_t> executed{0};
  int64_t expected = 0;
  Rng rng(704);
  for (int round = 0; round < 100; ++round) {
    const int num_threads = 1 + static_cast<int>(rng.NextBelow(4));  // 1..4
    const int num_tasks = static_cast<int>(rng.NextBelow(32));       // 0..31
    ThreadPool pool(num_threads);
    for (int t = 0; t < num_tasks; ++t) {
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    expected += num_tasks;
    if (round % 2 == 0) {
      pool.Wait();  // odd rounds: destructor alone must drain the queue
    }
  }
  EXPECT_EQ(executed.load(), expected);
}

TEST(ParallelStressTest, ParallelForNestedWaves) {
  // Repeated ParallelFor waves over one pool: Wait() must be a reliable
  // barrier between waves (in_flight_ bookkeeping), and disjoint-index
  // writes must not race.
  ThreadPool pool(4);
  std::vector<int64_t> cells(256, 0);
  for (int wave = 0; wave < 50; ++wave) {
    ParallelFor(&pool, 0, static_cast<int64_t>(cells.size()),
                [&cells](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) ++cells[
                      static_cast<size_t>(i)];
                });
  }
  for (const int64_t c : cells) EXPECT_EQ(c, 50);
}

TEST(ParallelStressTest, StressedResultStaysExact) {
  // After all the hammering above, a plain parallel run in the same
  // process still matches brute force — the stress machinery leaks no
  // state between runs.
  const auto pts = ClusteredPoints(400, 60.0, 3, 705);
  const KdvTask task = MakeStressTask(pts, 20, 15);
  ParallelOptions options;
  options.num_threads = 4;
  const auto map = ComputeKdvParallel(task, Method::kSlamBucket, options);
  ASSERT_TRUE(map.ok());
  ExpectMapsNear(BruteForceDensity(task), *map, 1e-9);
}

}  // namespace
}  // namespace slam
