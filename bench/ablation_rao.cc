// Ablation benchmarks (google-benchmark) for the design choices DESIGN.md
// §4 calls out:
//  1. RAO on/off across viewport aspect ratios at constant pixel count —
//     RAO only changes the run where its rule (core/rao.h) sweeps columns:
//     where they read fewer point–line pairs than the rows, stores
//     included. That depends on the pixels' shape as well as the grid's.
//  2. SLAM_SORT vs SLAM_BUCKET at growing n. Both names run the same
//     passes — here, called directly, Lemma 1's scan, the counting sort
//     and the run sweep (DESIGN.md §12), which run the scalar reference on
//     every backend — so the pair measures one code path twice;
//     Algorithm 1's comparison sort is not in the code (ROADMAP item 3).
//  3. The engine's sorted envelope slices and bucket sums vs the paper's
//     per-row scan with the direct entry's counting sort, both on the
//     scalar backend, so the pair compares strategies and not backends.
//  4. Aggregate arity: the engine's cost per kernel, at paper Table 4's 1,
//     4 or 9 aggregate values.
#include <benchmark/benchmark.h>

#include <utility>

#include "core/rao.h"
#include "core/slam_bucket.h"
#include "core/slam_sort.h"
#include "data/generators.h"
#include "data/sampling.h"
#include "kdv/engine.h"
#include "simd/dispatch.h"
#include "util/string_util.h"

namespace slam {
namespace {

const PointDataset& SharedCity() {
  static const PointDataset dataset =
      *GenerateCityDataset(City::kLosAngeles, 0.02, 42);
  return dataset;
}

/// Aspect-ratio sweep at a constant ~16k pixels. Args (X, Y, RAO, and the
/// percent of the city's width and height the region keeps, centered).
/// LA is about 1.4 times wider than tall, so its full extent gives 128×128
/// wide pixels (RAO sweeps columns) and 160×120 near-square ones. The two
/// stretched regions sit on either side of the rule: tall pixels on a tall
/// grid (rows, where Y > X would sweep columns) and wide pixels on a wide
/// grid (columns, where Y > X would sweep rows).
void BM_AspectRatio(benchmark::State& state) {
  const bool rao = state.range(2) != 0;
  const int width = static_cast<int>(state.range(0));
  const int height = static_cast<int>(state.range(1));
  const double keep_x = static_cast<double>(state.range(3)) / 100.0;
  const double keep_y = static_cast<double>(state.range(4)) / 100.0;
  const auto& ds = SharedCity();
  const BoundingBox extent = ds.Extent();
  const Point c = extent.center();
  const double half_w = 0.5 * keep_x * extent.width();
  const double half_h = 0.5 * keep_y * extent.height();
  const auto viewport =
      *Viewport::Create(BoundingBox({c.x - half_w, c.y - half_h},
                                    {c.x + half_w, c.y + half_h}),
                        width, height);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  const Method method = rao ? Method::kSlamBucketRao : Method::kSlamBucket;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeKdv(task, method)->MaxValue());
  }
  state.SetLabel(StringPrintf("%dx%d on %d%%x%d%% %s", width, height,
                              static_cast<int>(state.range(3)),
                              static_cast<int>(state.range(4)),
                              rao ? (RaoWouldTranspose(task) ? "RAO columns"
                                                             : "RAO rows")
                                  : "base"));
}
BENCHMARK(BM_AspectRatio)
    ->Args({512, 32, 0, 100, 100})
    ->Args({512, 32, 1, 100, 100})
    ->Args({160, 120, 0, 100, 100})
    ->Args({160, 120, 1, 100, 100})
    ->Args({128, 128, 0, 100, 100})
    ->Args({128, 128, 1, 100, 100})
    ->Args({120, 160, 0, 100, 100})
    ->Args({120, 160, 1, 100, 100})
    ->Args({32, 512, 0, 100, 100})
    ->Args({32, 512, 1, 100, 100})
    ->Args({120, 160, 0, 35, 100})
    ->Args({120, 160, 1, 35, 100})
    ->Args({160, 120, 0, 100, 50})
    ->Args({160, 120, 1, 100, 50})
    ->Unit(benchmark::kMillisecond);

/// The two method names at growing dataset sizes, called directly on
/// unsorted points: both scan every point per row, counting-sort the
/// endpoints and run the row sweep, so their times should agree within
/// noise.
void BM_SortVsBucket(benchmark::State& state) {
  const bool bucket = state.range(1) != 0;
  const auto& full = SharedCity();
  const auto subset =
      *SampleCount(full, static_cast<size_t>(state.range(0)), 7);
  const auto viewport = *Viewport::Create(subset.Extent(), 160, 120);
  const KdvTask task =
      MakeTask(subset, viewport, KernelType::kEpanechnikov, 1500.0);
  DensityMap out;
  for (auto _ : state) {
    const Status st = bucket ? ComputeSlamBucket(task, {}, &out)
                             : ComputeSlamSort(task, {}, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out.MaxValue());
  }
  state.SetLabel(bucket ? "bucket" : "sort");
}
BENCHMARK(BM_SortVsBucket)
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({25000, 0})
    ->Args({25000, 1})
    ->Unit(benchmark::kMillisecond);

/// The paper's per-row O(n) envelope scan (direct ComputeSlamBucket on the
/// dataset's unsorted points) vs the engine's pass 1 (ComputeKdv: one copy
/// per compute, counting-sorted by the lines each point reaches, each
/// row's envelope a slice of it). Both are exact; building the copy is
/// inside the timed region. The engine's lines also keep bucket sums where
/// the direct call counting-sorts endpoints and runs the row sweep, so the
/// pair times both differences together. The direct entry's scan, sort and
/// row sweep run the scalar reference on every backend, so both arms are
/// pinned to it.
void BM_EnvelopeStrategy(benchmark::State& state) {
  const bool sliced = state.range(0) != 0;
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  EngineOptions scalar;
  scalar.compute.simd = SimdLevel::kScalar;
  DensityMap out;
  for (auto _ : state) {
    if (sliced) {
      auto map = ComputeKdv(task, Method::kSlamBucket, scalar);
      if (!map.ok()) {
        state.SkipWithError(map.status().ToString().c_str());
        break;
      }
      out = *std::move(map);
    } else {
      const Status st = ComputeSlamBucket(task, scalar.compute, &out);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    }
    benchmark::DoNotOptimize(out.MaxValue());
  }
  state.SetLabel(sliced ? "reach-order+slice" : "per-row-scan");
}
BENCHMARK(BM_EnvelopeStrategy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Aggregate arity cost: the engine's sweep under each kernel
/// decomposition (1 vs 4 vs 9 aggregate values, paper Table 4).
void BM_KernelArity(benchmark::State& state) {
  const KernelType kernel = static_cast<KernelType>(state.range(0));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task = MakeTask(ds, viewport, kernel, 1500.0);
  for (auto _ : state) {
    auto map = ComputeKdv(task, Method::kSlamBucket);
    if (!map.ok()) {
      state.SkipWithError(map.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(map->MaxValue());
  }
  state.SetLabel(std::string(KernelTypeName(kernel)));
}
BENCHMARK(BM_KernelArity)
    ->Arg(static_cast<int>(KernelType::kUniform))
    ->Arg(static_cast<int>(KernelType::kEpanechnikov))
    ->Arg(static_cast<int>(KernelType::kQuartic))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slam

BENCHMARK_MAIN();
