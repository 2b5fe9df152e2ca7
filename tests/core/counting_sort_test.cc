// The pixel-binned counting sort (SimdOps::histogram_scatter, DESIGN.md
// §12) vs a std::stable_sort reference. The counting sort replaced the
// per-row comparison sort of SLAM_SORT; its contract is that every pixel
// receives the identical run *set* the sort-then-merge produced — and,
// because the scatter is stable, the identical run *sequence* a stable
// comparison sort by bucket produces. Each case runs through the table of
// every SIMD backend compiled into this binary and available on this CPU.
// Every table names the scalar reference for this pass, and the tables are
// held bit-identical to the scalar one (the pass is integer control flow
// plus an exact translation, so "close" would already be a bug).
//
// Grids here are exactly representable (origins and gaps that are powers
// of two or exact halves), so the strict/non-strict boundary cases below
// are decided by the bucket formulas, not by rounding of the test inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/slam_bucket.h"
#include "core/sweep_state.h"
#include "kdv/grid.h"
#include "simd/dispatch.h"
#include "simd/sweep_ops.h"
#include "util/random.h"

namespace slam {
namespace {

/// Every backend this binary can actually run, scalar first.
std::vector<const SimdOps*> AvailableBackends() {
  std::vector<const SimdOps*> out{GetScalarOps()};
  for (const SimdOps* ops : {GetAvx2Ops(), GetNeonOps()}) {
    if (ops != nullptr && SimdLevelAvailable(ops->level)) out.push_back(ops);
  }
  return out;
}

/// One side's scattered output: run offsets plus row-local SoA lanes.
struct Runs {
  std::vector<int32_t> offsets;
  std::vector<double> px, py;
};

struct ScatterOutput {
  Runs lower, upper;
};

/// A complete histogram_scatter input: bucket indices per endpoint plus
/// the (global) coordinates to scatter.
struct Workload {
  int num_pixels = 0;
  double origin_x = 0.0;
  double origin_y = 0.0;
  std::vector<int32_t> lower_idx, upper_idx;
  std::vector<double> ex, ey;

  size_t n() const { return ex.size(); }
};

ScatterOutput RunScatter(const SimdOps* ops, const Workload& w) {
  const size_t pixels = static_cast<size_t>(w.num_pixels);
  ScatterOutput out;
  out.lower.offsets.assign(pixels + 2, -1);
  out.upper.offsets.assign(pixels + 2, -1);
  out.lower.px.assign(w.n(), 0.0);
  out.lower.py.assign(w.n(), 0.0);
  out.upper.px.assign(w.n(), 0.0);
  out.upper.py.assign(w.n(), 0.0);
  std::vector<int32_t> lower_cursor(pixels + 1), upper_cursor(pixels + 1);

  HistogramScatterArgs args;
  args.n = w.n();
  args.num_pixels = w.num_pixels;
  args.lower_idx = w.lower_idx.data();
  args.upper_idx = w.upper_idx.data();
  args.ex = w.ex.data();
  args.ey = w.ey.data();
  args.origin_x = w.origin_x;
  args.origin_y = w.origin_y;
  args.lower_offsets = out.lower.offsets.data();
  args.upper_offsets = out.upper.offsets.data();
  args.lower_cursor = lower_cursor.data();
  args.upper_cursor = upper_cursor.data();
  args.lower_px = out.lower.px.data();
  args.lower_py = out.lower.py.data();
  args.upper_px = out.upper.px.data();
  args.upper_py = out.upper.py.data();
  ops->histogram_scatter(args);
  return out;
}

/// The reference: a stable comparison sort by bucket, then runs cut at
/// bucket changes — exactly the order the retired sort-then-merge loop
/// fed the accumulators in.
Runs StableSortReference(const std::vector<int32_t>& idx,
                         const std::vector<double>& ex,
                         const std::vector<double>& ey, int num_pixels,
                         double origin_x, double origin_y) {
  std::vector<size_t> order(idx.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&idx](size_t a, size_t b) { return idx[a] < idx[b]; });
  Runs runs;
  runs.offsets.assign(static_cast<size_t>(num_pixels) + 2, 0);
  for (const int32_t b : idx) {
    runs.offsets[static_cast<size_t>(b) + 1] += 1;
  }
  for (size_t i = 1; i < runs.offsets.size(); ++i) {
    runs.offsets[i] += runs.offsets[i - 1];
  }
  for (const size_t i : order) {
    runs.px.push_back(ex[i] - origin_x);
    runs.py.push_back(ey[i] - origin_y);
  }
  return runs;
}

void ExpectRunsValid(const Runs& runs, size_t n, int num_pixels,
                     const char* side) {
  SCOPED_TRACE(side);
  ASSERT_EQ(runs.offsets.size(), static_cast<size_t>(num_pixels) + 2);
  EXPECT_EQ(runs.offsets.front(), 0);
  for (size_t i = 1; i < runs.offsets.size(); ++i) {
    EXPECT_LE(runs.offsets[i - 1], runs.offsets[i]) << "offset " << i;
  }
  // Coverage: the park run's end is the total endpoint count — every
  // endpoint landed in exactly one run.
  EXPECT_EQ(runs.offsets.back(), static_cast<int32_t>(n));
}

void ExpectRunsEqual(const Runs& actual, const Runs& expected,
                     const char* side) {
  SCOPED_TRACE(side);
  EXPECT_EQ(actual.offsets, expected.offsets);
  // Bit-equality is intentional: the scatter is an exact translation of
  // exact inputs, in the stable order.
  EXPECT_EQ(actual.px, expected.px);
  EXPECT_EQ(actual.py, expected.py);
}

struct SortCase {
  const char* name;
  size_t n;
  int num_pixels;
  int distinct_buckets;  // <= 0: unconstrained in [0, num_pixels]
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<SortCase>& info) {
  return info.param.name;
}

class CountingSortEquivalenceTest
    : public ::testing::TestWithParam<SortCase> {};

TEST_P(CountingSortEquivalenceTest, MatchesStableSortOnEveryBackend) {
  const SortCase& c = GetParam();
  Rng rng(c.seed);
  Workload w;
  w.num_pixels = c.num_pixels;
  w.origin_x = 16.0;  // exact, so global - origin is exact for our inputs
  w.origin_y = -8.0;
  // Buckets drawn directly over the full clamped range [0, num_pixels] —
  // including the park bucket — optionally restricted to a few distinct
  // values so every run carries heavy ties and duplicates.
  std::vector<int32_t> palette;
  if (c.distinct_buckets > 0) {
    for (int i = 0; i < c.distinct_buckets; ++i) {
      palette.push_back(static_cast<int32_t>(
          rng.NextBelow(static_cast<uint64_t>(c.num_pixels) + 1)));
    }
  }
  for (size_t i = 0; i < c.n; ++i) {
    const auto draw = [&]() -> int32_t {
      if (!palette.empty()) {
        return palette[rng.NextBelow(palette.size())];
      }
      return static_cast<int32_t>(
          rng.NextBelow(static_cast<uint64_t>(c.num_pixels) + 1));
    };
    w.lower_idx.push_back(draw());
    w.upper_idx.push_back(draw());
    // Distinct per-endpoint coordinates so a mis-scattered lane cannot
    // masquerade as a tie.
    w.ex.push_back(static_cast<double>(i) + 0.25);
    w.ey.push_back(static_cast<double>(i) - 0.75);
  }

  const Runs lower_ref = StableSortReference(
      w.lower_idx, w.ex, w.ey, w.num_pixels, w.origin_x, w.origin_y);
  const Runs upper_ref = StableSortReference(
      w.upper_idx, w.ex, w.ey, w.num_pixels, w.origin_x, w.origin_y);

  const ScatterOutput scalar = RunScatter(GetScalarOps(), w);
  for (const SimdOps* ops : AvailableBackends()) {
    SCOPED_TRACE(SimdLevelName(ops->level));
    const ScatterOutput got = RunScatter(ops, w);
    ExpectRunsValid(got.lower, w.n(), w.num_pixels, "lower");
    ExpectRunsValid(got.upper, w.n(), w.num_pixels, "upper");
    ExpectRunsEqual(got.lower, lower_ref, "lower vs stable_sort");
    ExpectRunsEqual(got.upper, upper_ref, "upper vs stable_sort");
    // Backends are bit-identical to scalar, not merely equivalent.
    ExpectRunsEqual(got.lower, scalar.lower, "lower vs scalar");
    ExpectRunsEqual(got.upper, scalar.upper, "upper vs scalar");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CountingSortEquivalenceTest,
    ::testing::Values(
        // Odd point and pixel counts.
        SortCase{"Random", 257, 33, 0, 0xC0DE},
        SortCase{"HeavyTies", 300, 7, 3, 0x7135},
        SortCase{"AllOneBucket", 64, 9, 1, 0xD0D0},
        SortCase{"Empty", 0, 9, 0, 0x1},
        SortCase{"SinglePixel", 50, 1, 0, 0x51},
        // Wide axes: X a power of two, and X just past one.
        SortCase{"WideAxisAligned", 100, 1024, 0, 0xA11},
        SortCase{"WideAxisTail", 100, 1027, 0, 0x7A1}),
    CaseName);

TEST(CountingSortSemanticsTest, StrictVsNonStrictBoundaryBuckets) {
  // Pixel centers at 0.5, 1.5, ..., 7.5 — all exact. A lower bound
  // exactly ON a pixel coordinate belongs to that pixel's run (the sweep
  // applies lower bounds non-strictly: LB <= x_i), while an upper bound
  // exactly ON it belongs to the NEXT run (strict: UB < x_i keeps a point
  // contributing at the pixel its interval ends on — sweep_state.h).
  const GridAxis xs{0.5, 1.0, 8};
  Workload w;
  w.num_pixels = xs.count;
  const Point origin = RowLocalOrigin(xs, WorldY(0.0));
  w.origin_x = origin.x;
  w.origin_y = origin.y;
  for (int i = 0; i < xs.count; ++i) {
    const double v = xs.Coord(i);
    w.lower_idx.push_back(LowerBucket(WorldX(v), xs));
    w.upper_idx.push_back(UpperBucket(WorldX(v), xs));
    w.ex.push_back(v);
    w.ey.push_back(0.0);
    EXPECT_EQ(w.lower_idx.back(), i) << "lower bound on pixel " << i;
    EXPECT_EQ(w.upper_idx.back(), i + 1) << "upper bound on pixel " << i;
  }
  for (const SimdOps* ops : AvailableBackends()) {
    SCOPED_TRACE(SimdLevelName(ops->level));
    const ScatterOutput got = RunScatter(ops, w);
    for (int i = 0; i < xs.count; ++i) {
      const size_t b = static_cast<size_t>(i);
      // Run i holds exactly the one lower endpoint that sits on pixel i.
      ASSERT_EQ(got.lower.offsets[b + 1] - got.lower.offsets[b], 1);
      EXPECT_DOUBLE_EQ(
          got.lower.px[static_cast<size_t>(got.lower.offsets[b])],
          xs.Coord(i) - w.origin_x);
      // The matching upper endpoint shifted one run right; the endpoint
      // on the last pixel landed in the park run (i + 1 == count).
      ASSERT_EQ(got.upper.offsets[b + 2] - got.upper.offsets[b + 1], 1);
      EXPECT_DOUBLE_EQ(
          got.upper.px[static_cast<size_t>(got.upper.offsets[b + 1])],
          xs.Coord(i) - w.origin_x);
    }
  }
}

TEST(CountingSortSemanticsTest, OutOfRangeBucketsClampToEdgeAndParkRuns) {
  const GridAxis xs{0.0, 0.25, 16};  // exact quarter gaps
  Workload w;
  w.num_pixels = xs.count;
  // Values far left of the axis clamp to bucket 0; far right to the park
  // bucket X, whose run the row sweep never applies.
  const double below = xs.origin - 100.0;
  const double above = xs.last() + 100.0;
  EXPECT_EQ(LowerBucket(WorldX(below), xs), 0);
  EXPECT_EQ(UpperBucket(WorldX(below), xs), 0);
  EXPECT_EQ(LowerBucket(WorldX(above), xs), xs.count);
  EXPECT_EQ(UpperBucket(WorldX(above), xs), xs.count);
  for (int i = 0; i < 6; ++i) {
    const double v = (i % 2 == 0) ? below : above;
    w.lower_idx.push_back(LowerBucket(WorldX(v), xs));
    w.upper_idx.push_back(UpperBucket(WorldX(v), xs));
    w.ex.push_back(v);
    w.ey.push_back(static_cast<double>(i));
  }
  for (const SimdOps* ops : AvailableBackends()) {
    SCOPED_TRACE(SimdLevelName(ops->level));
    const ScatterOutput got = RunScatter(ops, w);
    const size_t x = static_cast<size_t>(xs.count);
    // Three endpoints each at the clamped edges, nothing in between.
    EXPECT_EQ(got.lower.offsets[1], 3);   // run 0
    EXPECT_EQ(got.lower.offsets[x], 3);   // runs 1..X-1 empty
    EXPECT_EQ(got.lower.offsets[x + 1], 6);  // park run
    EXPECT_EQ(got.upper.offsets[1], 3);
    EXPECT_EQ(got.upper.offsets[x], 3);
    EXPECT_EQ(got.upper.offsets[x + 1], 6);
    // Stability: the below-axis endpoints kept input order (ey 0, 2, 4).
    EXPECT_DOUBLE_EQ(got.lower.py[0], 0.0 - w.origin_y);
    EXPECT_DOUBLE_EQ(got.lower.py[1], 2.0);
    EXPECT_DOUBLE_EQ(got.lower.py[2], 4.0);
  }
}

}  // namespace
}  // namespace slam
