// The per-thread sweep arena (core/sweep_arena.h, DESIGN.md §12): the
// borrow discipline (one borrower per thread, nested borrows fall back to
// a private heap), the qx cache key, ShrinkToFit() and Release() around a
// refused budget charge, and — the property the whole refactor rests on —
// that reusing grown lanes across computes never bleeds one task's stale
// endpoints into the next task's density.
#include "core/sweep_arena.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/slam_bucket.h"
#include "core/slam_sort.h"
#include "core/sweep_state.h"
#include "kdv/engine.h"
#include "kdv/grid.h"
#include "kdv/task.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

using ::slam::testing::MakeGrid;
using ::slam::testing::RandomPoints;

TEST(ScopedArenaTest, BorrowsThreadArenaAndNestsOntoHeap) {
  ScopedArena outer;
  EXPECT_TRUE(outer.owns_thread_arena());
  EXPECT_EQ(&*outer, &ThreadSweepArenaForTest());
  {
    // A compute issued from inside another compute on the same thread
    // must not clobber the outer borrow's lanes.
    ScopedArena nested;
    EXPECT_FALSE(nested.owns_thread_arena());
    EXPECT_NE(&*nested, &*outer);
  }
  // The thread arena is free again once the borrow ends.
  ScopedArena after;
  // `outer` still holds it; only a fresh scope after outer dies gets it.
  EXPECT_FALSE(after.owns_thread_arena());
}

TEST(ScopedArenaTest, ThreadArenaFreeAfterBorrowEnds) {
  { ScopedArena borrow; }
  ScopedArena next;
  EXPECT_TRUE(next.owns_thread_arena());
}

TEST(SweepArenaTest, PrepareComputeSizesLanesAndCachesQx) {
  SweepArena arena;
  const GridAxis xs{0.5, 1.0, 8};  // exact half-integer pixel centers
  arena.PrepareCompute(100, xs);
  EXPECT_EQ(arena.ex.size(), 100u);
  EXPECT_EQ(arena.ey.size(), 100u);
  EXPECT_EQ(arena.lower_offsets.size(), 10u);  // X + 2
  EXPECT_EQ(arena.upper_offsets.size(), 10u);
  EXPECT_EQ(arena.lower_cursor.size(), 9u);  // X + 1
  ASSERT_EQ(arena.qx.size(), 8u);
  // qx is row-local: pixel center minus the row frame's x-origin.
  const double origin_x = RowLocalOrigin(xs, WorldY(0.0)).x;
  for (int i = 0; i < xs.count; ++i) {
    EXPECT_DOUBLE_EQ(arena.qx[static_cast<size_t>(i)],
                     xs.Coord(i) - origin_x);
  }

  // Same axis again: the cached fill survives (same buffer, same values).
  const double* data = arena.qx.data();
  arena.PrepareCompute(50, xs);
  EXPECT_EQ(arena.qx.data(), data);
  EXPECT_DOUBLE_EQ(arena.qx[0], xs.Coord(0) - origin_x);

  // A different axis invalidates the cache and refills.
  const GridAxis other{0.25, 0.5, 8};
  arena.PrepareCompute(50, other);
  const double other_origin = RowLocalOrigin(other, WorldY(0.0)).x;
  for (int i = 0; i < other.count; ++i) {
    EXPECT_DOUBLE_EQ(arena.qx[static_cast<size_t>(i)],
                     other.Coord(i) - other_origin);
  }
}

TEST(SweepArenaTest, HeapBytesGrowsWithLanesAndReleaseDropsToZero) {
  SweepArena arena;
  EXPECT_EQ(arena.HeapBytes(), 0u);
  const GridAxis xs{0.0, 1.0, 64};
  arena.PrepareCompute(1000, xs);
  arena.PrepareRow(500);
  const size_t grown = arena.HeapBytes();
  // At minimum the two envelope lanes and qx are live doubles.
  EXPECT_GE(grown, (1000 + 1000 + 64) * sizeof(double));
  // Release is the budget-failure escape hatch: nothing may stay cached,
  // or a tightened budget would keep failing against old capacity.
  arena.Release();
  EXPECT_EQ(arena.HeapBytes(), 0u);
  EXPECT_TRUE(arena.qx.empty());
  // And the qx cache key was invalidated with it: a fresh PrepareCompute
  // on the same axis refills correctly.
  arena.PrepareCompute(10, xs);
  ASSERT_EQ(arena.qx.size(), 64u);
  EXPECT_DOUBLE_EQ(arena.qx[1] - arena.qx[0], xs.gap);
}

TEST(SweepArenaTest, ShrinkToFitKeepsOnlyTheSizedLanes) {
  SweepArena arena;
  const GridAxis xs{0.0, 1.0, 64};
  arena.PrepareCompute(1000, xs);
  arena.PrepareRow(500);
  arena.line.resize(256);  // a column sweep's line lane
  arena.scratch.lanes.resize(64 * 12);
  // A smaller compute on the same arena keeps the big one's capacity...
  arena.PrepareCompute(10, xs);
  arena.PrepareRow(5);
  arena.line.resize(64);
  for (size_t i = 0; i < 10; ++i) arena.ex[i] = static_cast<double>(i);
  const size_t sized =
      (10 + 10 + 6 * 5 + 64 + 64) * sizeof(double) +
      (2 * 5 + 2 * (64 + 2) + 2 * (64 + 1)) * sizeof(int32_t);
  EXPECT_GT(arena.HeapBytes(), sized);
  // ...until ShrinkToFit drops everything past the sized lanes, scratch
  // included, without touching what the sized lanes hold.
  arena.ShrinkToFit();
  EXPECT_EQ(arena.HeapBytes(), sized);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(arena.ex[i], static_cast<double>(i));
  }
  ASSERT_EQ(arena.qx.size(), 64u);
  EXPECT_DOUBLE_EQ(arena.qx[1] - arena.qx[0], xs.gap);
}

TEST(SweepArenaTest, ReuseAcrossComputesDoesNotBleedStaleLanes) {
  // Render a small task, then a much larger one (growing every arena lane
  // and leaving it full of the big task's endpoints), then the small one
  // again on the same thread. The runs of the second small compute are
  // built inside lanes still holding stale data beyond the live prefix;
  // any reader of a stale slot shows up as a differing density.
  const double extent = 256.0;
  const std::vector<Point> small_points =
      RandomPoints(40, extent, /*seed=*/0xA5);
  const std::vector<Point> big_points =
      RandomPoints(3000, extent, /*seed=*/0xB6);
  KdvTask small;
  small.points = small_points;
  small.grid = MakeGrid(9, 7, extent);
  small.kernel = KernelType::kEpanechnikov;
  small.bandwidth = 70.0;
  small.weight = 1.0 / 40.0;

  KdvTask big;
  big.points = big_points;
  big.grid = MakeGrid(65, 5, extent);
  big.kernel = KernelType::kQuartic;
  big.bandwidth = 90.0;
  big.weight = 1.0 / 3000.0;

  // Through the engine each row slices a y-sorted copy; directly on the
  // unsorted points each row rescans all of them. Both reuse the lanes.
  for (const bool engine : {true, false}) {
    for (const Method method : {Method::kSlamSort, Method::kSlamBucket}) {
      SCOPED_TRACE(std::string(MethodName(method)) +
                   (engine ? " via ComputeKdv" : " direct"));
      const auto run = [&](const KdvTask& task) -> Result<DensityMap> {
        if (engine) return ComputeKdv(task, method, {});
        DensityMap out;
        SLAM_RETURN_NOT_OK(method == Method::kSlamSort
                               ? ComputeSlamSort(task, {}, &out)
                               : ComputeSlamBucket(task, {}, &out));
        return out;
      };
      ThreadSweepArenaForTest().Release();
      const auto first = run(small);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      const size_t small_heap = ThreadSweepArenaForTest().HeapBytes();
      const auto grow = run(big);
      ASSERT_TRUE(grow.ok()) << grow.status().ToString();
      // The thread arena kept the big task's capacity (that is the point
      // of the cache)...
      EXPECT_GT(ThreadSweepArenaForTest().HeapBytes(), small_heap);
      const auto second = run(small);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      // ...and the rerun is bit-identical to the pre-growth run: same code
      // path, same backend, so any difference is stale-lane bleed.
      for (int iy = 0; iy < small.grid.height(); ++iy) {
        for (int ix = 0; ix < small.grid.width(); ++ix) {
          ASSERT_EQ(first->at(ix, iy), second->at(ix, iy))
              << "pixel (" << ix << ", " << iy << ")";
        }
      }
    }
  }
}

TEST(SweepArenaTest, BudgetFailureReleasesCachedCapacity) {
  const double extent = 128.0;
  const std::vector<Point> points = RandomPoints(2000, extent, /*seed=*/0xFE);
  KdvTask task;
  task.points = points;
  task.grid = MakeGrid(33, 5, extent);
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 50.0;
  task.weight = 1.0 / 2000.0;

  // Grow the thread arena, then rerun under a budget far below its held
  // capacity: the compute must fail AND drop the cached lanes, so the
  // refusal is not sticky for the thread's next task. ComputeSlamSort is
  // called directly — the engine's analytic pre-flight would refuse
  // before the arena's own charge ever ran.
  DensityMap grown;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &grown).ok());
  EXPECT_GT(ThreadSweepArenaForTest().HeapBytes(), 0u);

  MemoryBudget budget(1024);  // far below the arena's footprint
  ExecContext exec;
  exec.set_memory_budget(&budget);
  ComputeOptions options;
  options.exec = &exec;
  DensityMap refused_out;
  const Status refused = ComputeSlamSort(task, options, &refused_out);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  EXPECT_EQ(ThreadSweepArenaForTest().HeapBytes(), 0u);

  // And the thread recovers: without the budget the same task runs again.
  DensityMap retry;
  EXPECT_TRUE(ComputeSlamSort(task, {}, &retry).ok());
}

TEST(SweepArenaTest, BudgetedComputeIsNotChargedForAnEarlierComputesCapacity) {
  // An unbudgeted big compute leaves the thread arena far larger than a
  // small compute needs. A budget that fits the small compute — twice its
  // pre-flight estimate — must still let it run: the sweep drops the
  // stale capacity and charges again instead of refusing.
  const double extent = 1000.0;
  const std::vector<Point> big_points =
      RandomPoints(60000, extent, /*seed=*/0x3C);
  const std::vector<Point> small_points =
      RandomPoints(3000, extent, /*seed=*/0x4D);
  KdvTask big;
  big.points = big_points;
  big.grid = MakeGrid(320, 240, extent);
  big.bandwidth = 40.0;
  big.weight = 1.0 / 60000.0;
  KdvTask small;
  small.points = small_points;
  small.grid = MakeGrid(64, 48, extent);
  small.bandwidth = 40.0;
  small.weight = 1.0 / 3000.0;
  const size_t limit =
      2 * EstimateAuxiliarySpaceBytes(Method::kSlamBucket, 3000, 64, 48);

  const auto unbudgeted = ComputeKdv(small, Method::kSlamBucket, {});
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  for (const bool engine : {true, false}) {
    SCOPED_TRACE(engine ? "via ComputeKdv" : "direct");
    // The direct call on unsorted points sizes the scan's lanes to all
    // 60000 points; that is the capacity left behind.
    DensityMap grown;
    ASSERT_TRUE(ComputeSlamBucket(big, {}, &grown).ok());
    ASSERT_GT(ThreadSweepArenaForTest().HeapBytes(), limit);

    MemoryBudget budget(limit);
    ExecContext exec;
    exec.set_memory_budget(&budget);
    DensityMap out;
    if (engine) {
      EngineOptions options;
      options.compute.exec = &exec;
      auto map = ComputeKdv(small, Method::kSlamBucket, options);
      ASSERT_TRUE(map.ok()) << map.status().ToString();
      out = *std::move(map);
      // Shrinking kept every live lane's contents: same raster.
      for (int iy = 0; iy < small.grid.height(); ++iy) {
        for (int ix = 0; ix < small.grid.width(); ++ix) {
          ASSERT_EQ(unbudgeted->at(ix, iy), out.at(ix, iy))
              << "pixel (" << ix << ", " << iy << ")";
        }
      }
    } else {
      ComputeOptions options;
      options.exec = &exec;
      const Status st = ComputeSlamBucket(small, options, &out);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_LE(budget.peak_bytes(), limit);
    EXPECT_EQ(budget.used_bytes(), 0u);
  }
}

}  // namespace
}  // namespace slam
