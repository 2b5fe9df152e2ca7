#include "common/harness.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "testing/oracle.h"

namespace slam::bench {
namespace {

TEST(CellResultTest, ToStringForms) {
  CellResult ok;
  ok.seconds = 1.2345;
  EXPECT_EQ(ok.ToString(), "1.234");  // %.3f truncates by rounding
  CellResult censored;
  censored.censored = true;
  censored.seconds = 10.0;
  EXPECT_EQ(censored.ToString(), ">10");
  CellResult failed;
  failed.status = Status::Internal("boom");
  EXPECT_EQ(failed.ToString(), "ERR");
}

TEST(FormatSpeedupTest, Cases) {
  CellResult baseline;
  baseline.seconds = 10.0;
  CellResult ours;
  ours.seconds = 2.0;
  EXPECT_EQ(FormatSpeedup(baseline, ours), "5.0x");
  baseline.censored = true;
  EXPECT_EQ(FormatSpeedup(baseline, ours), ">=5.0x");
  baseline.censored = false;
  baseline.status = Status::Internal("x");
  EXPECT_EQ(FormatSpeedup(baseline, ours), "-");
  baseline = CellResult{};
  baseline.seconds = 10.0;
  ours.censored = true;
  EXPECT_EQ(FormatSpeedup(baseline, ours), "-");
}

TEST(BenchConfigTest, EnvOverrides) {
  setenv("SLAM_BENCH_SCALE", "0.123", 1);
  setenv("SLAM_BENCH_BUDGET", "3.5", 1);
  setenv("SLAM_BENCH_RES", "64x48", 1);
  const BenchConfig config = BenchConfig::FromEnv();
  EXPECT_DOUBLE_EQ(config.dataset_scale, 0.123);
  EXPECT_DOUBLE_EQ(config.budget_seconds, 3.5);
  EXPECT_EQ(config.width, 64);
  EXPECT_EQ(config.height, 48);
  unsetenv("SLAM_BENCH_SCALE");
  unsetenv("SLAM_BENCH_BUDGET");
  unsetenv("SLAM_BENCH_RES");
}

TEST(BenchConfigTest, CheckAndJsonEnvOverrides) {
  const BenchConfig defaults;
  EXPECT_FALSE(defaults.check_errors);
  EXPECT_TRUE(defaults.json_path.empty());
  setenv("SLAM_BENCH_CHECK", "1", 1);
  setenv("SLAM_BENCH_JSON", "/tmp/bench.jsonl", 1);
  BenchConfig config = BenchConfig::FromEnv();
  EXPECT_TRUE(config.check_errors);
  EXPECT_EQ(config.json_path, "/tmp/bench.jsonl");
  setenv("SLAM_BENCH_CHECK", "0", 1);
  config = BenchConfig::FromEnv();
  EXPECT_FALSE(config.check_errors);
  unsetenv("SLAM_BENCH_CHECK");
  unsetenv("SLAM_BENCH_JSON");
}

TEST(BenchConfigTest, MalformedEnvFallsBackToDefaults) {
  setenv("SLAM_BENCH_SCALE", "banana", 1);
  setenv("SLAM_BENCH_RES", "64by48", 1);
  const BenchConfig config = BenchConfig::FromEnv();
  const BenchConfig defaults;
  EXPECT_DOUBLE_EQ(config.dataset_scale, defaults.dataset_scale);
  EXPECT_EQ(config.width, defaults.width);
  unsetenv("SLAM_BENCH_SCALE");
  unsetenv("SLAM_BENCH_RES");
}

TEST(RunCellTest, MeasuresAndCompletes) {
  BenchConfig config;
  config.dataset_scale = 0.001;
  config.budget_seconds = 30.0;
  config.width = 20;
  config.height = 15;
  const auto ds = LoadBenchDataset(City::kSeattle, config);
  ASSERT_TRUE(ds.ok());
  const auto task = DatasetTask(*ds, config.width, config.height,
                                KernelType::kEpanechnikov);
  ASSERT_TRUE(task.ok());
  const CellResult cell = RunCell(*task, Method::kSlamBucketRao, config);
  EXPECT_TRUE(cell.status.ok());
  EXPECT_FALSE(cell.censored);
  EXPECT_GT(cell.seconds, 0.0);
  // No reference passed: the error column is explicitly unmeasured.
  EXPECT_TRUE(std::isnan(cell.max_rel_error));
}

TEST(RunCellTest, MeasuresMaxRelErrorAgainstReference) {
  BenchConfig config;
  config.dataset_scale = 0.001;
  config.budget_seconds = 30.0;
  config.width = 20;
  config.height = 15;
  config.check_errors = true;
  const auto ds = LoadBenchDataset(City::kSeattle, config);
  ASSERT_TRUE(ds.ok());
  const auto task = DatasetTask(*ds, config.width, config.height,
                                KernelType::kEpanechnikov);
  ASSERT_TRUE(task.ok());
  const auto reference = MaybeReference(*task, config);
  ASSERT_TRUE(reference.has_value());
  for (const Method m : {Method::kScan, Method::kSlamBucketRao}) {
    const CellResult cell =
        RunCell(*task, m, config, {}, &*reference);
    ASSERT_TRUE(cell.status.ok());
    EXPECT_FALSE(std::isnan(cell.max_rel_error));
    EXPECT_LT(cell.max_rel_error, 1e-9);
  }
  // check_errors off: MaybeReference declines to pay for the oracle pass.
  config.check_errors = false;
  EXPECT_FALSE(MaybeReference(*task, config).has_value());
}

TEST(PeakRssTest, WatermarkResetTracksAllocationsAndDropsAgain) {
  if (!ResetPeakRss()) {
    GTEST_SKIP() << "peak-RSS watermark reset unsupported on this platform";
  }
  const size_t baseline = PeakRssBytes();
  ASSERT_GT(baseline, 0u);
  // Map and touch a block well above page-accounting noise; the watermark
  // must climb by at least half of it. The block comes straight from mmap
  // so unmapping returns its pages to the kernel at once: a freed heap
  // block can stay resident (an allocator cache, ASan's quarantine).
  constexpr size_t kBlockBytes = 16u << 20;
  void* mapped = mmap(nullptr, kBlockBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mapped, MAP_FAILED);
  auto* block = static_cast<unsigned char*>(mapped);
  for (size_t i = 0; i < kBlockBytes; i += 4096) block[i] = 1;
  const size_t with_block = PeakRssBytes();
  ASSERT_EQ(munmap(mapped, kBlockBytes), 0);
  EXPECT_GE(with_block, baseline + kBlockBytes / 2);
  // After the block is freed a fresh reset must re-anchor the watermark
  // below the old peak — this is exactly what lets RunCell attribute a
  // cell's RSS to its own method instead of the process lifetime.
  ASSERT_TRUE(ResetPeakRss());
  EXPECT_LT(PeakRssBytes(), with_block);
}

TEST(CellJsonLineTest, FormatsMeasuredAndUnmeasuredCells) {
  CellResult cell;
  cell.seconds = 0.25;
  EXPECT_EQ(CellJsonLine("table7", "Seattle", Method::kScan, cell),
            "{\"experiment\":\"table7\",\"dataset\":\"Seattle\","
            "\"method\":\"SCAN\",\"seconds\":0.25,\"censored\":false,"
            "\"ok\":true,\"max_rel_error\":null,\"peak_rss_bytes\":0}");
  cell.max_rel_error = 0.5;
  cell.censored = true;
  const std::string line =
      CellJsonLine("table7", "Seattle", Method::kSlamBucket, cell);
  EXPECT_NE(line.find("\"max_rel_error\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"censored\":true"), std::string::npos);
}

TEST(MaybeAppendJsonTest, AppendsOneLinePerCall) {
  BenchConfig config;
  config.json_path = ::testing::TempDir() + "/slam_bench_test.jsonl";
  std::remove(config.json_path.c_str());
  MaybeAppendJson(config, "{\"a\":1}");
  MaybeAppendJson(config, "{\"b\":2}");
  std::ifstream in(config.json_path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(config.json_path.c_str());
  // Empty path: silently does nothing.
  config.json_path.clear();
  MaybeAppendJson(config, "{\"c\":3}");
}

TEST(RunCellTest, CensorsOverBudget) {
  BenchConfig config;
  config.dataset_scale = 0.02;
  config.budget_seconds = 0.001;  // everything blows this budget
  config.width = 400;
  config.height = 400;
  const auto ds = LoadBenchDataset(City::kSeattle, config);
  ASSERT_TRUE(ds.ok());
  const auto task = DatasetTask(*ds, config.width, config.height,
                                KernelType::kEpanechnikov);
  const CellResult cell = RunCell(*task, Method::kScan, config);
  EXPECT_TRUE(cell.censored);
  EXPECT_DOUBLE_EQ(cell.seconds, 0.001);
}

TEST(LoadBenchDatasetsTest, AllFourCitiesAtTinyScale) {
  BenchConfig config;
  config.dataset_scale = 0.0005;
  const auto datasets = LoadBenchDatasets(config);
  ASSERT_TRUE(datasets.ok());
  ASSERT_EQ(datasets->size(), 4u);
  // Sizes follow Table 5's ordering: Seattle < LA < NY < SF.
  for (size_t i = 1; i < datasets->size(); ++i) {
    EXPECT_GT((*datasets)[i].data.size(), (*datasets)[i - 1].data.size());
  }
  for (const auto& ds : *datasets) {
    EXPECT_GT(ds.scott_bandwidth, 0.0);
  }
}

TEST(DatasetTaskTest, BandwidthScaleApplies) {
  BenchConfig config;
  config.dataset_scale = 0.001;
  const auto ds = LoadBenchDataset(City::kNewYork, config);
  ASSERT_TRUE(ds.ok());
  const auto base =
      DatasetTask(*ds, 10, 10, KernelType::kUniform, 1.0);
  const auto doubled =
      DatasetTask(*ds, 10, 10, KernelType::kUniform, 2.0);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(doubled.ok());
  EXPECT_DOUBLE_EQ(doubled->bandwidth, 2.0 * base->bandwidth);
  EXPECT_EQ(base->grid.width(), 10);
}

}  // namespace
}  // namespace slam::bench
