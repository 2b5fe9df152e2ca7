// Golden raster bits: the SLAM engine's rasters, hashed byte for byte and
// pinned. A refactor that only moves data (the swept copy's layout, how a
// column is stored, which two-sum form a backend uses) must leave every
// hash here unchanged; one that changes arithmetic shows up as a new hash
// long before it shows up against the 1e-9 oracle.
//
// Inputs are exact by construction: the points come from an integer LCG
// and sit on multiples of 2^-6, and no libm call makes them, so the same
// inputs reach the engine on every platform. Every available backend,
// serially and on 3 threads, must produce the same bytes. The pinned
// constants were computed on x86-64 without FMA contraction;
// kdv/kernel.cc's closed-form evaluation is not built with
// -ffp-contract=off, so an FMA target may round it differently, and there
// only the pinned comparison is skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/rao.h"
#include "kdv/engine.h"
#include "kdv/parallel.h"
#include "kdv/task.h"
#include "simd/dispatch.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::MakeGrid;

/// `n` points on the 2^-6 lattice of [0, 64)², from Knuth's MMIX LCG.
std::vector<Point> LatticePoints(size_t n, uint64_t seed) {
  uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((state >> 40) % 4096) / 64.0;
  };
  std::vector<Point> points(n);
  for (Point& p : points) {
    p.x = next();
    p.y = next();
  }
  return points;
}

/// 64-bit FNV-1a over the raster's bytes.
uint64_t RasterHash(const DensityMap& map) {
  const std::span<const double> values = map.values();
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < values.size() * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

enum class Shape { kRows, kColumns, kOffsetColumns };

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRows:
      return "Rows";
    case Shape::kColumns:
      return "Columns";
    case Shape::kOffsetColumns:
      return "OffsetColumns";
  }
  return "?";
}

struct GoldenCase {
  Shape shape;
  KernelType kernel;
  Method method;
  uint64_t hash;  // on x86-64 without FMA contraction
};

/// How gtest prints a case: without it, the struct's raw bytes, padding
/// included, which differ from run to run.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << ShapeName(c.shape) << " " << KernelTypeName(c.kernel) << " "
      << MethodName(c.method);
}

/// The task of each shape, over `points` (which must outlive it):
///  * rows — 48×36 pixels, wider than tall, so RAO keeps rows;
///  * columns — 37×96 pixels, taller than wide: RAO sweeps its 37
///    columns, more than one block of 8;
///  * offset columns — the columns task moved to (1e7, 1e7), where the
///    engine recenters.
KdvTask GoldenTask(Shape shape, const std::vector<Point>& points) {
  KdvTask task;
  task.points = points;
  task.bandwidth = shape == Shape::kRows ? 5.0 : 4.0;
  task.weight = 1.0 / static_cast<double>(points.size());
  task.grid = shape == Shape::kRows ? MakeGrid(48, 36, 64.0)
                                    : MakeGrid(37, 96, 64.0);
  if (shape == Shape::kOffsetColumns) {
    task.grid = task.grid.Translated(-1e7, -1e7);
  }
  return task;
}

std::vector<Point> PointsFor(Shape shape) {
  std::vector<Point> points = LatticePoints(2500, 0x51A4);
  if (shape == Shape::kOffsetColumns) {
    for (Point& p : points) {
      p.x += 1e7;
      p.y += 1e7;
    }
  }
  return points;
}

class RasterBitsTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(RasterBitsTest, EveryBackendAndThreadCountHashesToThePinnedBits) {
  const GoldenCase& c = GetParam();
  const std::vector<Point> points = PointsFor(c.shape);
  KdvTask task = GoldenTask(c.shape, points);
  task.kernel = c.kernel;
  ASSERT_EQ(RaoWouldTranspose(task), c.shape != Shape::kRows);
  ASSERT_EQ(TaskFarFromOrigin(task), c.shape == Shape::kOffsetColumns);

  std::vector<std::string> runs;
  std::vector<uint64_t> hashes;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!SimdLevelAvailable(level)) continue;
    for (const int threads : {0, 3}) {
      ParallelOptions options;
      options.num_threads = threads;
      options.engine.compute.simd = level;
      const auto map = threads == 0
                           ? ComputeKdv(task, c.method, options.engine)
                           : ComputeKdvParallel(task, c.method, options);
      ASSERT_TRUE(map.ok()) << map.status().ToString();
      runs.push_back(std::string(SimdLevelName(level)) +
                     (threads == 0 ? " serial" : " 3 threads"));
      hashes.push_back(RasterHash(*map));
    }
  }
  ASSERT_FALSE(hashes.empty());
  for (size_t i = 1; i < hashes.size(); ++i) {
    EXPECT_EQ(hashes[i], hashes[0]) << runs[i] << " against " << runs[0];
  }
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "hashes pinned on x86-64 without FMA; this build got 0x"
               << std::hex << hashes[0];
#else
  EXPECT_EQ(hashes[0], c.hash) << "0x" << std::hex << hashes[0];
#endif
}

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  const KernelType kernels[] = {KernelType::kUniform,
                                KernelType::kEpanechnikov,
                                KernelType::kQuartic};
  const Method methods[] = {Method::kSlamBucket, Method::kSlamBucketRao};
  // Each task's SLAM_BUCKET and SLAM_BUCKET_RAO hash per kernel, in the
  // order the loops below visit them. Where RAO keeps rows, and for the
  // uniform kernel's exact counts, both methods give the same raster.
  const uint64_t pinned[] = {
      // rows
      0x3be88defa8857dfbULL, 0x3be88defa8857dfbULL,  // uniform
      0x4b79d24fa55884d3ULL, 0x4b79d24fa55884d3ULL,  // Epanechnikov
      0x776384529aa14eccULL, 0x776384529aa14eccULL,  // quartic
      // columns
      0x87963ce9a3594ee3ULL, 0x87963ce9a3594ee3ULL,  // uniform
      0x4163ee81a6171ff6ULL, 0x6cbc166c7e9b9ea4ULL,  // Epanechnikov
      0x45ff0a9e5eb4e3a0ULL, 0xa0af642357b124fcULL,  // quartic
      // offset columns
      0x87963ce9a3594ee3ULL, 0x87963ce9a3594ee3ULL,  // uniform
      0x4428d25380d7c4a5ULL, 0xd68d3239f048934eULL,  // Epanechnikov
      0x4fb9dfeca6d25b66ULL, 0x68379fd2c8e5f4c0ULL,  // quartic
  };
  size_t next = 0;
  for (const Shape shape :
       {Shape::kRows, Shape::kColumns, Shape::kOffsetColumns}) {
    for (const KernelType kernel : kernels) {
      for (const Method method : methods) {
        cases.push_back({shape, kernel, method, pinned[next++]});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, RasterBitsTest, ::testing::ValuesIn(GoldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      const GoldenCase& c = param_info.param;
      std::string kernel(KernelTypeName(c.kernel));
      kernel[0] = static_cast<char>(kernel[0] - 'a' + 'A');
      return ShapeName(c.shape) + kernel +
             (c.method == Method::kSlamBucket ? "Bucket" : "BucketRao");
    });

}  // namespace
}  // namespace slam
