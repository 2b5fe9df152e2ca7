// Differential correctness oracle (PR 3): every method against the
// long-double reference SCAN, including on adversarially translated
// datasets where the old global-frame aggregates lost all their mantissa
// bits. These are the property tests that enforce the ISSUE acceptance
// criterion: at EPSG:3857 magnitudes every method stays within 1e-9
// max relative error of the reference for all three SLAM kernels.
#include "testing/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "kdv/engine.h"
#include "kdv/parallel.h"
#include "kdv/task.h"
#include "testing/test_util.h"

namespace slam::testing {
namespace {

constexpr double kMaxRelError = 1e-9;

// ---- UlpDistance ---------------------------------------------------

TEST(UlpDistanceTest, IdenticalValuesAreZeroApart) {
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0);
  EXPECT_EQ(UlpDistance(0.0, 0.0), 0);
  EXPECT_EQ(UlpDistance(-3.5e100, -3.5e100), 0);
}

TEST(UlpDistanceTest, SignedZerosCoincide) {
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0);
  EXPECT_EQ(UlpDistance(-0.0, 0.0), 0);
}

TEST(UlpDistanceTest, AdjacentDoublesAreOneApart) {
  const double x = 1.0;
  const double up = std::nextafter(x, 2.0);
  EXPECT_EQ(UlpDistance(x, up), 1);
  EXPECT_EQ(UlpDistance(up, x), 1);
  const double neg = -1.0;
  EXPECT_EQ(UlpDistance(neg, std::nextafter(neg, -2.0)), 1);
}

TEST(UlpDistanceTest, CrossesZeroContinuously) {
  // Smallest positive subnormal is one ulp from +0.0, two from the
  // smallest negative subnormal.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(UlpDistance(tiny, 0.0), 1);
  EXPECT_EQ(UlpDistance(tiny, -tiny), 2);
}

TEST(UlpDistanceTest, NanSaturates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(UlpDistance(nan, 1.0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(UlpDistance(1.0, nan), std::numeric_limits<int64_t>::max());
}

TEST(UlpDistanceTest, OppositeInfinitiesSaturate) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(UlpDistance(inf, -inf), std::numeric_limits<int64_t>::max());
}

// ---- CompareToReference --------------------------------------------

TEST(CompareToReferenceTest, ShapeMismatchIsAnError) {
  const DensityMap a = DensityMap::Create(4, 4).ValueOrDie();
  const DensityMap b = DensityMap::Create(4, 5).ValueOrDie();
  EXPECT_FALSE(CompareToReference(a, b).ok());
}

TEST(CompareToReferenceTest, IdenticalMapsReportZeroError) {
  DensityMap a = DensityMap::Create(3, 2).ValueOrDie();
  a.set(1, 1, 7.25);
  const auto report = CompareToReference(a, a);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->max_rel_error, 0.0);
  EXPECT_EQ(report->max_abs_error, 0.0);
  EXPECT_EQ(report->max_ulps, 0);
}

TEST(CompareToReferenceTest, ReportsWorstPixel) {
  DensityMap ref = DensityMap::Create(3, 3).ValueOrDie();
  DensityMap got = DensityMap::Create(3, 3).ValueOrDie();
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      ref.set(x, y, 10.0);
      got.set(x, y, 10.0);
    }
  }
  got.set(2, 1, 10.5);  // 5% off
  const auto report = CompareToReference(got, ref);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->worst_ix, 2);
  EXPECT_EQ(report->worst_iy, 1);
  EXPECT_NEAR(report->max_rel_error, 0.05, 1e-12);
  EXPECT_NEAR(report->max_abs_error, 0.5, 1e-12);
}

TEST(CompareToReferenceTest, RelativeFloorMutesEmptyPixels) {
  // A stray 1e-30 in a pixel whose reference is exactly 0 must not blow
  // the relative error to infinity: it is judged against the floor, a
  // fraction of the reference peak.
  DensityMap ref = DensityMap::Create(2, 1).ValueOrDie();
  DensityMap got = DensityMap::Create(2, 1).ValueOrDie();
  ref.set(0, 0, 1.0);
  got.set(0, 0, 1.0);
  got.set(1, 0, 1e-30);
  const auto report = CompareToReference(got, ref, /*rel_floor_fraction=*/1e-6);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->max_rel_error, 1e-20);
}

// ---- ReferenceScan -------------------------------------------------

TEST(ReferenceScanTest, MatchesBruteForceOnWellConditionedTask) {
  KdvTask task;
  const std::vector<Point> points = RandomPoints(200, 100.0, /*seed=*/7);
  task.points = points;
  task.grid = MakeGrid(16, 12, 100.0);
  task.bandwidth = 18.0;
  task.weight = 1.0 / 200.0;
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov, KernelType::kQuartic,
        KernelType::kGaussian}) {
    task.kernel = kernel;
    const auto reference = ReferenceScan(task);
    ASSERT_TRUE(reference.ok()) << KernelTypeName(kernel);
    const DensityMap brute = BruteForceDensity(task);
    const auto report = CompareToReference(brute, *reference);
    ASSERT_TRUE(report.ok());
    // Double brute force vs long double reference: only rounding noise.
    EXPECT_LT(report->max_rel_error, 1e-12) << KernelTypeName(kernel);
  }
}

TEST(ReferenceScanTest, HonorsCancellation) {
  KdvTask task;
  const std::vector<Point> points = RandomPoints(50, 100.0, /*seed=*/3);
  task.points = points;
  task.grid = MakeGrid(8, 8, 100.0);
  task.bandwidth = 10.0;
  task.kernel = KernelType::kEpanechnikov;
  CancellationToken token;
  token.Cancel();
  ExecContext exec;
  exec.set_cancellation(&token);
  const auto result = ReferenceScan(task, &exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---- The property tests --------------------------------------------

struct OracleCase {
  KernelType kernel;
  double offset_x;
  double offset_y;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  std::string name(KernelTypeName(c.kernel));
  auto tag = [](double v) -> std::string {
    if (v == 0.0) return "0";
    return std::string(v < 0 ? "Minus" : "Plus") +
           std::to_string(static_cast<long long>(std::abs(v)));
  };
  return name + "_Ox" + tag(c.offset_x) + "_Oy" + tag(c.offset_y);
}

/// A clustered task covering [0, extent]^2, then adversarially translated
/// so every coordinate carries a huge common offset. The reference and
/// the methods see the *identical* translated task, so input quantization
/// (coordinates rounding at ulp(1e7)) is common-mode and the diff
/// isolates each method's own arithmetic.
KdvTask MakeOffsetTask(KernelType kernel, double offset_x, double offset_y,
                       std::vector<Point>& storage, Grid& grid_storage,
                       uint64_t seed) {
  const double extent = 512.0;
  KdvTask task;
  storage = ClusteredPoints(300, extent, /*clusters=*/4, seed);
  for (Point& p : storage) {
    p.x += offset_x;
    p.y += offset_y;
  }
  // Grid::Translated(dx, dy) shifts by (-dx, -dy); negate to follow the
  // points, which moved by +offset.
  grid_storage = MakeGrid(40, 30, extent).Translated(-offset_x, -offset_y);
  task.points = storage;
  task.grid = grid_storage;
  task.kernel = kernel;
  task.bandwidth = 60.0;
  task.weight = 1.0 / 300.0;
  return task;
}

class OraclePropertyTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OraclePropertyTest, AllMethodsWithinThresholdOfReference) {
  const OracleCase& c = GetParam();
  std::vector<Point> storage;
  Grid grid;
  const KdvTask task =
      MakeOffsetTask(c.kernel, c.offset_x, c.offset_y, storage, grid,
                     /*seed=*/0xC0FFEE);
  const auto reference = ReferenceScan(task);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->MaxValue(), 0.0);
  const EngineOptions options = ExactEngineOptions();
  for (const Method method : AllMethods()) {
    const auto report = DiffAgainstReference(task, method, options, *reference);
    ASSERT_TRUE(report.ok()) << MethodName(method) << ": "
                             << report.status().ToString();
    EXPECT_LE(report->max_rel_error, kMaxRelError)
        << MethodName(method) << " drifted from the reference: rel "
        << report->max_rel_error << " at pixel (" << report->worst_ix << ", "
        << report->worst_iy << "), got " << report->worst_value
        << " expected " << report->worst_reference;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsKernelsOffsets, OraclePropertyTest,
    ::testing::Values(
        OracleCase{KernelType::kUniform, 0.0, 0.0},
        OracleCase{KernelType::kEpanechnikov, 0.0, 0.0},
        OracleCase{KernelType::kQuartic, 0.0, 0.0},
        // EPSG:3857-scale adversarial offsets (the ISSUE's headline case:
        // web-mercator meters put Seattle at roughly (-1.36e7, 6.0e6)).
        OracleCase{KernelType::kUniform, 1e7, 1e7},
        OracleCase{KernelType::kEpanechnikov, 1e7, 1e7},
        OracleCase{KernelType::kQuartic, 1e7, 1e7},
        OracleCase{KernelType::kUniform, -1e7, 1e7},
        OracleCase{KernelType::kEpanechnikov, -1e7, -1e7},
        OracleCase{KernelType::kQuartic, -1e7, 1e7}),
    CaseName);

/// Random small tasks: vary grid shape, bandwidth, and seed together.
TEST(OraclePropertyTest, RandomTasksAllMethodsAgree) {
  const struct {
    int width, height;
    double bandwidth;
    uint64_t seed;
  } cases[] = {
      {17, 23, 35.0, 11},
      {64, 9, 90.0, 22},
      {25, 25, 140.0, 33},
  };
  for (const auto& c : cases) {
    std::vector<Point> points = RandomPoints(250, 512.0, c.seed);
    const Grid grid = MakeGrid(c.width, c.height, 512.0);
    for (const KernelType kernel :
         {KernelType::kUniform, KernelType::kEpanechnikov,
          KernelType::kQuartic}) {
      KdvTask task;
      task.points = points;
      task.grid = grid;
      task.kernel = kernel;
      task.bandwidth = c.bandwidth;
      task.weight = 1.0 / 250.0;
      const auto reference = ReferenceScan(task);
      ASSERT_TRUE(reference.ok());
      const EngineOptions options = ExactEngineOptions();
      for (const Method method : AllMethods()) {
        const auto report =
            DiffAgainstReference(task, method, options, *reference);
        ASSERT_TRUE(report.ok()) << MethodName(method);
        EXPECT_LE(report->max_rel_error, kMaxRelError)
            << MethodName(method) << " on " << c.width << "x" << c.height
            << " b=" << c.bandwidth << " " << KernelTypeName(kernel);
      }
    }
  }
}

/// The sweep methods must hold the threshold even with engine-level
/// recentering off: the row-local frame inside the sweep is what carries
/// them. The yardstick here is SCAN under the *same* no-recenter options
/// — both then evaluate at the identical double-rounded global pixel
/// centers (quantized at ulp(1e7), a common-mode input effect the
/// long-double oracle's ideal lattice would charge to every method
/// equally), so the diff isolates the sweep's aggregate accumulation.
/// (Continuous kernels only — with the uniform kernel, a boundary point
/// misclassified by one ulp in the bound endpoints changes the density by
/// a full 1/b step; the engine's recentering handles that case.)
TEST(OraclePropertyTest, SweepMethodsStableWithoutEngineRecentering) {
  for (const KernelType kernel :
       {KernelType::kEpanechnikov, KernelType::kQuartic}) {
    std::vector<Point> storage;
    Grid grid;
    const KdvTask task = MakeOffsetTask(kernel, 1e7, -1e7, storage, grid,
                                        /*seed=*/0xBEEF);
    EngineOptions options = ExactEngineOptions();
    options.recenter_coordinates = false;
    const auto scan = ComputeKdv(task, Method::kScan, options);
    ASSERT_TRUE(scan.ok());
    ASSERT_GT(scan->MaxValue(), 0.0);
    for (const Method method :
         {Method::kSlamSort, Method::kSlamBucket, Method::kSlamSortRao,
          Method::kSlamBucketRao}) {
      const auto report = DiffAgainstReference(task, method, options, *scan);
      ASSERT_TRUE(report.ok()) << MethodName(method);
      EXPECT_LE(report->max_rel_error, kMaxRelError)
          << MethodName(method) << " (" << KernelTypeName(kernel)
          << ", no recentering): rel " << report->max_rel_error;
    }
  }
}

/// Points far outside the view across the swept axis, yet inside a swept
/// line's band, add zero to every pixel. Left in the sweep, both of a far
/// point's interval endpoints park before pixel 0, so L and U each carry
/// its coordinate to the fourth power (1e32 at 1e8). Once two of them
/// share a line, their sum rounds, the rounding error lands in the
/// compensation lanes, and the quartic channels cancel to noise at that
/// scale. The engine's copy drops such points (DESIGN.md §6). Wide grids
/// sweep rows, so the far points sit at a far x in one row band; tall
/// grids are swept along columns by the RAO methods, so the mirrored case
/// puts them at a far y in one column band.
TEST(OraclePropertyTest, FarPointsAcrossTheSweptAxisAddNothing) {
  for (const bool tall : {false, true}) {
    const int width = tall ? 80 : 100;
    const int height = tall ? 100 : 80;
    std::vector<Point> points;
    Rng rng(0xFA7);
    for (int i = 0; i < 2000; ++i) {
      points.push_back({rng.Uniform(0.0, width), rng.Uniform(0.0, height)});
    }
    const size_t in_view = points.size();
    for (const double far : {-1e8, -1e9}) {
      points.resize(in_view);
      for (int i = 0; i < 3; ++i) {
        const double band = rng.Uniform(37.0, 43.0);
        const double off = far * rng.Uniform(1.0, 2.0);
        points.push_back(tall ? Point{band, off} : Point{off, band});
      }
      for (const KernelType kernel :
           {KernelType::kUniform, KernelType::kEpanechnikov,
            KernelType::kQuartic}) {
        KdvTask task;
        task.points = points;
        task.kernel = kernel;
        task.bandwidth = 10.0;
        task.weight = 1.0 / 2000.0;
        task.grid = Grid::Create(GridAxis{0.5, 1.0, width},
                                 GridAxis{0.5, 1.0, height})
                        .ValueOrDie();
        const auto reference = ReferenceScan(task);
        ASSERT_TRUE(reference.ok());
        for (const Method method :
             {Method::kSlamSort, Method::kSlamBucket, Method::kSlamSortRao,
              Method::kSlamBucketRao}) {
          const auto report = DiffAgainstReference(
              task, method, ExactEngineOptions(), *reference);
          ASSERT_TRUE(report.ok()) << MethodName(method);
          EXPECT_LE(report->max_rel_error, kMaxRelError)
              << MethodName(method) << " " << width << "x" << height
              << " far " << far << " " << KernelTypeName(kernel);
        }
      }
    }
  }
}

/// A valid task whose far point recenters past the 1e12 coordinate cap
/// (x = -1.98e12). The engine validates the task once, as given: the SLAM
/// copy keeps only points within b of the grid, so it never holds the
/// shifted far point, and the other methods read the recentered copy
/// without validating it again. Serial and line-parallel alike.
TEST(OraclePropertyTest, EveryMethodAcceptsPointsThatRecenterPastTheCap) {
  const double o = 9.9e11;
  const std::vector<Point> points{{o + 50.0, o + 40.0}, {-o, o + 40.0}};
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    KdvTask task;
    task.points = points;
    task.kernel = kernel;
    task.bandwidth = 10.0;
    task.weight = 0.5;
    task.grid =
        Grid::Create(GridAxis{o, 1.0, 100}, GridAxis{o, 1.0, 80}).ValueOrDie();
    ASSERT_TRUE(ValidateTask(task).ok());
    ASSERT_TRUE(TaskFarFromOrigin(task));
    const auto reference = ReferenceScan(task);
    ASSERT_TRUE(reference.ok());
    ASSERT_GT(reference->MaxValue(), 0.0);
    ParallelOptions parallel;
    parallel.num_threads = 3;
    parallel.engine = ExactEngineOptions();
    for (const Method method : AllMethods()) {
      const auto report =
          DiffAgainstReference(task, method, ExactEngineOptions(), *reference);
      ASSERT_TRUE(report.ok())
          << MethodName(method) << ": " << report.status().ToString();
      EXPECT_LE(report->max_rel_error, kMaxRelError)
          << MethodName(method) << " " << KernelTypeName(kernel);
      const auto map = ComputeKdvParallel(task, method, parallel);
      ASSERT_TRUE(map.ok())
          << MethodName(method) << " parallel: " << map.status().ToString();
      const auto parallel_report = CompareToReference(*map, *reference);
      ASSERT_TRUE(parallel_report.ok());
      EXPECT_LE(parallel_report->max_rel_error, kMaxRelError)
          << MethodName(method) << " parallel " << KernelTypeName(kernel);
    }
  }
}

/// The compensated-aggregates knob is live: both settings produce valid
/// results on a well-conditioned task, and the knob defaults to on.
TEST(OraclePropertyTest, CompensationKnobBothSettingsCorrect) {
  ComputeOptions defaults;
  EXPECT_TRUE(defaults.compensated_aggregates);
  std::vector<Point> storage;
  Grid grid;
  const KdvTask task = MakeOffsetTask(KernelType::kEpanechnikov, 0.0, 0.0,
                                      storage, grid, /*seed=*/0xFACE);
  const auto reference = ReferenceScan(task);
  ASSERT_TRUE(reference.ok());
  for (const bool compensated : {true, false}) {
    EngineOptions options = ExactEngineOptions();
    options.compute.compensated_aggregates = compensated;
    for (const Method method : {Method::kSlamSort, Method::kSlamBucket}) {
      const auto report =
          DiffAgainstReference(task, method, options, *reference);
      ASSERT_TRUE(report.ok()) << MethodName(method);
      EXPECT_LE(report->max_rel_error, kMaxRelError)
          << MethodName(method) << " compensated=" << compensated;
    }
  }
}

}  // namespace
}  // namespace slam::testing
