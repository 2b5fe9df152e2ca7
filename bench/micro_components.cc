// Microbenchmarks (google-benchmark) of SLAM's building blocks, backing
// the ablation notes in DESIGN.md §4:
//  * envelope discovery: paper's O(n) per-row scan vs the cursor over a
//    y-sorted copy (SortedEnvelopeCursor, the engine's pass 1);
//  * per-row endpoint ordering: a comparison sort of one row's endpoints
//    (Algorithm 1's step, which no method runs) vs the bucketing all four
//    SLAM methods run;
//  * aggregate maintenance cost per kernel (1 vs 4 vs 9 aggregate values);
//  * index construction costs the baselines pay per KDV call.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/bounds.h"
#include "core/envelope.h"
#include "core/sweep_state.h"
#include "data/generators.h"
#include "index/balltree.h"
#include "index/kdtree.h"
#include "index/quadtree.h"
#include "kdv/engine.h"
#include "kdv/grid.h"

namespace slam {
namespace {

const PointDataset& SharedCity() {
  static const PointDataset dataset =
      *GenerateCityDataset(City::kSeattle, 0.02, 42);
  return dataset;
}

void BM_EnvelopeLinearScan(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  for (auto _ : state) {
    FindEnvelope(ds.coords(), k, b, &env);
    benchmark::DoNotOptimize(env.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.size()));
}
BENCHMARK(BM_EnvelopeLinearScan);

/// The engine's pass 1: the points sorted by y once (outside the timed
/// loop, as the engine pays it once per compute), then one sweep of kRows
/// lines through SortedEnvelopeCursor. Items are rows, so the time per
/// item sets against BM_EnvelopeLinearScan's time per iteration (one row).
void BM_EnvelopeSortedScanner(benchmark::State& state) {
  constexpr int kRows = 480;
  const auto& ds = SharedCity();
  const double b = 600.0;
  std::vector<Point> sorted(ds.coords().begin(), ds.coords().end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Point& p, const Point& q) { return p.y < q.y; });
  const GridAxis rows{ds.Extent().min().y, ds.Extent().height() / kRows,
                      kRows};
  for (auto _ : state) {
    SortedEnvelopeCursor cursor(sorted);
    size_t seen = 0;
    for (int i = 0; i < kRows; ++i) {
      seen += cursor.Advance(WorldY(rows.Coord(i)), b).size();
    }
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_EnvelopeSortedScanner);

void BM_BoundIntervalComputation(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  for (auto _ : state) {
    ComputeBoundIntervals(env, k, b, &intervals);
    benchmark::DoNotOptimize(intervals.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.size()));
}
BENCHMARK(BM_BoundIntervalComputation);

/// Algorithm 1's per-row step, which no method runs any more (every SLAM
/// method buckets, DESIGN.md §12): comparison-sort one row's endpoints.
void BM_RowEndpointSort(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  ComputeBoundIntervals(env, k, b, &intervals);
  std::vector<double> endpoints(intervals.size());
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < intervals.size(); ++i) {
      endpoints[i] = intervals[i].lb;
    }
    state.ResumeTiming();
    std::sort(endpoints.begin(), endpoints.end());
    benchmark::DoNotOptimize(endpoints.data());
  }
}
BENCHMARK(BM_RowEndpointSort);

/// Bucketing the same endpoints: O(|E| + X).
void BM_RowEndpointBucket(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  const int X = 1280;
  const double x0 = ds.Extent().min().x;
  const double gap = ds.Extent().width() / X;
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  ComputeBoundIntervals(env, k, b, &intervals);
  std::vector<int32_t> counts;
  for (auto _ : state) {
    counts.assign(X + 2, 0);
    for (const BoundInterval& iv : intervals) {
      const double t = std::ceil((iv.lb - x0) / gap);
      const int bucket =
          t <= 0.0 ? 0 : (t >= X ? X : static_cast<int>(t));
      ++counts[bucket + 1];
    }
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_RowEndpointBucket);

void BM_AggregateAdd(benchmark::State& state) {
  const auto& ds = SharedCity();
  RangeAggregates agg;
  size_t i = 0;
  for (auto _ : state) {
    agg.Add(ds.coord(i));
    if (++i == ds.size()) i = 0;
  }
  benchmark::DoNotOptimize(&agg);
}
BENCHMARK(BM_AggregateAdd);

void BM_DensityFromAggregates(benchmark::State& state) {
  const KernelType kernel = static_cast<KernelType>(state.range(0));
  RangeAggregates agg;
  const auto& ds = SharedCity();
  for (size_t i = 0; i < 1000; ++i) agg.Add(ds.coord(i));
  const Point q = ds.Extent().center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DensityFromAggregates(kernel, q, agg, 600.0, 1e-3));
  }
}
BENCHMARK(BM_DensityFromAggregates)
    ->Arg(static_cast<int>(KernelType::kUniform))
    ->Arg(static_cast<int>(KernelType::kEpanechnikov))
    ->Arg(static_cast<int>(KernelType::kQuartic));

void BM_KdTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KdTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_KdTreeBuild);

void BM_BallTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BallTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_BallTreeBuild);

void BM_QuadTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuadTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_QuadTreeBuild);

void BM_KdTreeRangeAggregate(benchmark::State& state) {
  const auto& ds = SharedCity();
  const auto tree = *KdTree::Build(ds.coords());
  const Point q = ds.Extent().center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeAggregateQuery(q, 600.0).count);
  }
}
BENCHMARK(BM_KdTreeRangeAggregate);

/// Whole-KDV microbenchmark on a small tall grid (96x128), one per SLAM
/// method name. SLAM_SORT and SLAM_BUCKET sweep the same 128 rows and the
/// RAO variants the same 96 columns, so expect two levels, not four.
void BM_SmallKdv(benchmark::State& state) {
  const Method method = static_cast<Method>(state.range(0));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 96, 128);
  const KdvTask task = MakeTask(ds, viewport, KernelType::kEpanechnikov,
                                600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeKdv(task, method)->MaxValue());
  }
  state.SetLabel(std::string(MethodName(method)));
}
BENCHMARK(BM_SmallKdv)
    ->Arg(static_cast<int>(Method::kSlamSort))
    ->Arg(static_cast<int>(Method::kSlamBucket))
    ->Arg(static_cast<int>(Method::kSlamSortRao))
    ->Arg(static_cast<int>(Method::kSlamBucketRao))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slam

BENCHMARK_MAIN();
