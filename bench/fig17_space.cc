// Figure 17 of the paper: space consumption vs dataset size (25%..100%
// subsamples). Theorem 4: every method is O(XY + n), so the paper observes
// near-identical space across methods. We report, per method:
//  * the shared O(XY + n) base (input points + output raster), and
//  * the method's auxiliary structures — measured index sizes where an
//    index exists (kd/ball/quad/Z-order), and the analytic model of
//    EstimateAuxiliarySpaceBytes for the sweep workspaces.
#include <cstdio>

#include "common/harness.h"
#include "data/sampling.h"
#include "index/balltree.h"
#include "index/kdtree.h"
#include "index/quadtree.h"
#include "index/zorder_index.h"

namespace slam::bench {
namespace {

std::string Mib(size_t bytes) {
  return StringPrintf("%.2f", static_cast<double>(bytes) / (1024.0 * 1024.0));
}

size_t MeasuredAuxBytes(Method method, std::span<const Point> pts, int width,
                        int height) {
  switch (method) {
    case Method::kRqsKd:
    case Method::kAkde:
      return KdTree::Build(pts)->MemoryUsageBytes();
    case Method::kRqsBall:
      return BallTree::Build(pts)->MemoryUsageBytes();
    case Method::kQuad:
      return QuadTree::Build(pts)->MemoryUsageBytes();
    case Method::kZorder:
      return ZOrderIndex::Build(pts)->MemoryUsageBytes();
    default:
      return EstimateAuxiliarySpaceBytes(method, pts.size(), width, height,
                                         /*stripes=*/1, /*recentered=*/false);
  }
}

int Run() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintBanner("Figure 17: space consumption (MiB) vs dataset size", config);

  const auto datasets = LoadBenchDatasets(config);
  if (!datasets.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 datasets.status().ToString().c_str());
    return 1;
  }
  const double fractions[] = {0.25, 0.5, 0.75, 1.0};

  for (const BenchDataset& ds : *datasets) {
    std::printf("[%s] full n=%s (raster %dx%d = %s MiB shared by all "
                "methods)\n",
                std::string(CityName(ds.city)).c_str(),
                FormatWithCommas(static_cast<int64_t>(ds.data.size())).c_str(),
                config.width, config.height,
                Mib(static_cast<size_t>(config.width) * config.height *
                    sizeof(double))
                    .c_str());
    std::vector<std::string> headers{"Method"};
    for (const double f : fractions) {
      headers.push_back(StringPrintf("%d%% total", static_cast<int>(f * 100)));
    }
    TablePrinter table(std::move(headers));
    for (const Method m : config.EnabledMethods()) {
      std::vector<std::string> row{std::string(MethodName(m))};
      for (const double f : fractions) {
        const auto sub = SampleFraction(ds.data, f, config.seed + 5);
        if (!sub.ok()) {
          row.push_back("ERR");
          continue;
        }
        const size_t base =
            sub->size() * sizeof(Point) +
            static_cast<size_t>(config.width) * config.height * sizeof(double);
        const size_t aux =
            MeasuredAuxBytes(m, sub->coords(), config.width, config.height);
        row.push_back(Mib(base + aux));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Paper shape check: space grows linearly in n and all methods sit "
      "within a small constant factor of each other (Theorem 4).\n");
  return 0;
}

}  // namespace
}  // namespace slam::bench

int main() { return slam::bench::Run(); }
