// Ablation benchmarks (google-benchmark) for the design choices DESIGN.md
// §4 calls out:
//  1. RAO on/off across viewport aspect ratios at constant pixel count —
//     RAO only changes the run when Y > X, where it sweeps the min(X, Y)
//     columns instead of the rows.
//  2. SLAM_SORT vs SLAM_BUCKET at growing n. Both names run the same
//     passes — here, called directly, the counting sort and the run sweep
//     (DESIGN.md §12) — so the pair measures one code path twice;
//     Algorithm 1's comparison sort is not in the code (ROADMAP item 3).
//  3. The engine's sorted envelope slices and bucket sums vs the paper's
//     per-row scan with the direct entry's counting sort.
#include <benchmark/benchmark.h>

#include <utility>

#include "core/slam_bucket.h"
#include "core/slam_sort.h"
#include "data/generators.h"
#include "data/sampling.h"
#include "kdv/engine.h"
#include "util/string_util.h"

namespace slam {
namespace {

const PointDataset& SharedCity() {
  static const PointDataset dataset =
      *GenerateCityDataset(City::kLosAngeles, 0.02, 42);
  return dataset;
}

/// Aspect-ratio sweep at a constant ~16k pixels. Arg pairs (X, Y).
void BM_AspectRatio(benchmark::State& state) {
  const bool rao = state.range(2) != 0;
  const int width = static_cast<int>(state.range(0));
  const int height = static_cast<int>(state.range(1));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), width, height);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  const Method method = rao ? Method::kSlamBucketRao : Method::kSlamBucket;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeKdv(task, method)->MaxValue());
  }
  state.SetLabel(StringPrintf("%dx%d %s", width, height,
                              rao ? "RAO" : "base"));
}
BENCHMARK(BM_AspectRatio)
    ->Args({512, 32, 0})
    ->Args({512, 32, 1})
    ->Args({160, 120, 0})
    ->Args({160, 120, 1})
    ->Args({128, 128, 0})
    ->Args({128, 128, 1})
    ->Args({120, 160, 0})
    ->Args({120, 160, 1})
    ->Args({32, 512, 0})
    ->Args({32, 512, 1})
    ->Unit(benchmark::kMillisecond);

/// The two method names at growing dataset sizes, called directly on
/// unsorted points: both scan every point per row and bucket the
/// endpoints, so their times should agree within noise.
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
/// dataset's unsorted points) vs the engine's pass 1 (ComputeKdv: one
/// sorted copy per compute, each row's envelope a slice of it). Both are
/// exact; the sort is inside the timed region. The engine's lines also
/// keep bucket sums where the direct call counting-sorts and runs the row
/// sweep, so the pair times both differences together.
void BM_EnvelopeStrategy(benchmark::State& state) {
  const bool sliced = state.range(0) != 0;
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  DensityMap out;
  for (auto _ : state) {
    if (sliced) {
      auto map = ComputeKdv(task, Method::kSlamBucket);
      if (!map.ok()) {
        state.SkipWithError(map.status().ToString().c_str());
        break;
      }
      out = *std::move(map);
    } else {
      const Status st = ComputeSlamBucket(task, {}, &out);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    }
    benchmark::DoNotOptimize(out.MaxValue());
  }
  state.SetLabel(sliced ? "sort+slice" : "per-row-scan");
}
BENCHMARK(BM_EnvelopeStrategy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Aggregate arity cost: the same sweep under each kernel decomposition
/// (1 vs 4 vs 9 aggregate values, paper Table 4).
void BM_KernelArity(benchmark::State& state) {
  const KernelType kernel = static_cast<KernelType>(state.range(0));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task = MakeTask(ds, viewport, kernel, 1500.0);
  DensityMap out;
  for (auto _ : state) {
    const Status st = ComputeSlamBucket(task, {}, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out.MaxValue());
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
