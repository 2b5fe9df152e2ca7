// The engine's bucket pass (SimdOps::bucket_sweep, DESIGN.md §12) at the
// op level. Each case builds one swept line — envelope points, their
// intervals and bucket indices from the scalar passes 2–3 — and runs it
// through every SIMD backend this binary can run. Two contracts:
//  * every backend is bit-identical to the scalar reference (the vector
//    forms replay its adds channel by channel, in the same order);
//  * every backend matches the direct entry's counting sort + run sweep
//    (histogram_scatter + row_sweep, which every backend runs as the
//    scalar reference) on the same inputs to 1e-9 of the line's peak —
//    the two sum the same endpoint sets in different orders — and bit for
//    bit for the uniform kernel, whose counts are exact.
// The point counts leave every vector tail (m mod 4), the widths every
// evaluation tail, and each line has endpoints clamped into bucket 0,
// parked at bucket X, intervals whose two endpoints share a bucket, and
// duplicate points.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/slam_bucket.h"
#include "core/sweep_arena.h"
#include "core/sweep_state.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/dispatch.h"
#include "simd/sweep_ops.h"
#include "util/random.h"

namespace slam {
namespace {

constexpr double kPeakRelError = 1e-9;

/// Every backend this binary can actually run, scalar first.
std::vector<const SimdOps*> AvailableBackends() {
  std::vector<const SimdOps*> out{GetScalarOps()};
  for (const SimdOps* ops : {GetAvx2Ops(), GetNeonOps()}) {
    if (ops != nullptr && SimdLevelAvailable(ops->level)) out.push_back(ops);
  }
  return out;
}

/// One swept line's inputs: the envelope in global coordinates and the
/// bucket of each interval endpoint.
struct Line {
  GridAxis xs;
  double k = 0.0;  // the line's y
  double bandwidth = 1.0;
  double weight = 1.0;
  std::vector<double> ex, ey;
  std::vector<int32_t> lower_idx, upper_idx;
  std::vector<double> qx;  // row-local pixel coordinates
  Point origin;

  size_t m() const { return ex.size(); }
};

/// A line of `m` points over a `width`-pixel axis far from the origin, all
/// within b of the axis as the engine's copy keeps them. Most fall anywhere
/// in that band; every fifth lies just off either end with an interval that
/// stops short of the first or last pixel (both endpoints clamped into
/// bucket 0 or parked at bucket X), every seventh sits at |dy| ≈ b (an
/// interval narrower than one gap, both ends in one bucket), and every
/// sixth repeats the point before it.
Line MakeLine(size_t m, int width, uint64_t seed) {
  Rng rng(seed);
  Line line;
  const double gap = 2.0;
  line.xs = GridAxis{1.5e6 + 0.5 * gap, gap, width};
  line.k = -3.2e5;
  line.bandwidth = 3.0 * gap + 0.37;
  line.weight = 1.0 / static_cast<double>(std::max<size_t>(m, 1));
  const double b = line.bandwidth;
  const double lo = line.xs.origin;
  const double hi = line.xs.last();
  for (size_t i = 0; i < m; ++i) {
    double x = rng.Uniform(lo - b, hi + b);
    double y = line.k + rng.Uniform(-b, b);
    if (i % 5 == 1) {
      x = (i % 2 == 0) ? lo - 0.75 * b : hi + 0.75 * b;
      y = line.k + ((i % 4 == 1) ? 0.8 * b : -0.8 * b);  // half-width 0.6 b
    }
    if (i % 7 == 3) y = line.k + b * (1.0 - 1e-9);
    if (i % 6 == 5 && i > 0) {
      x = line.ex.back();
      y = line.ey.back();
    }
    line.ex.push_back(x);
    line.ey.push_back(y);
  }
  std::vector<double> lb(m), ub(m);
  const SimdOps* scalar = GetScalarOps();
  scalar->bound_intervals(line.ex.data(), line.ey.data(), m, line.k,
                          line.bandwidth, lb.data(), ub.data());
  line.lower_idx.resize(m);
  line.upper_idx.resize(m);
  scalar->bucket_indices(lb.data(), ub.data(), m, line.xs,
                         line.lower_idx.data(), line.upper_idx.data());
  line.origin = RowLocalOrigin(line.xs, WorldY(line.k));
  for (int ix = 0; ix < width; ++ix) {
    line.qx.push_back(line.xs.Coord(ix) - line.origin.x);
  }
  return line;
}

std::vector<double> RunBucketSweep(const SimdOps* ops, const Line& line,
                                   KernelType kernel, bool compensated) {
  const auto width = static_cast<size_t>(line.xs.count);
  // Garbage in every bucket: the pass zeroes its own lane.
  std::vector<double, AlignedAllocator<double, 64>> buckets(
      (width + 1) * BucketStride(kernel),
      std::numeric_limits<double>::quiet_NaN());
  std::vector<double> out(width, -1.0);
  BucketSweepArgs args;
  args.kernel = kernel;
  args.compensated = compensated;
  args.width = line.xs.count;
  args.bandwidth = line.bandwidth;
  args.weight = line.weight;
  args.qy = 0.0;
  args.qx = line.qx.data();
  args.n = line.m();
  args.ex = line.ex.data();
  args.ey = line.ey.data();
  args.origin_x = line.origin.x;
  args.origin_y = line.origin.y;
  args.lower_idx = line.lower_idx.data();
  args.upper_idx = line.upper_idx.data();
  args.buckets = buckets.data();
  args.out = out.data();
  ops->bucket_sweep(args);
  return out;
}

/// The direct entry's passes 4–5 on the same line, scalar reference.
std::vector<double> RunCountingSortAndRowSweep(const Line& line,
                                               KernelType kernel,
                                               bool compensated) {
  const size_t m = line.m();
  const auto width = static_cast<size_t>(line.xs.count);
  std::vector<int32_t> lower_offsets(width + 2), upper_offsets(width + 2);
  std::vector<int32_t> lower_cursor(width + 1), upper_cursor(width + 1);
  std::vector<double> lower_px(m), lower_py(m), upper_px(m), upper_py(m);
  HistogramScatterArgs hs;
  hs.n = m;
  hs.num_pixels = line.xs.count;
  hs.lower_idx = line.lower_idx.data();
  hs.upper_idx = line.upper_idx.data();
  hs.ex = line.ex.data();
  hs.ey = line.ey.data();
  hs.origin_x = line.origin.x;
  hs.origin_y = line.origin.y;
  hs.lower_offsets = lower_offsets.data();
  hs.upper_offsets = upper_offsets.data();
  hs.lower_cursor = lower_cursor.data();
  hs.upper_cursor = upper_cursor.data();
  hs.lower_px = lower_px.data();
  hs.lower_py = lower_py.data();
  hs.upper_px = upper_px.data();
  hs.upper_py = upper_py.data();
  const SimdOps* scalar = GetScalarOps();
  scalar->histogram_scatter(hs);

  std::vector<double> out(width, -1.0);
  RowSweepArgs args;
  args.kernel = kernel;
  args.compensated = compensated;
  args.width = line.xs.count;
  args.bandwidth = line.bandwidth;
  args.weight = line.weight;
  args.qy = 0.0;
  args.qx = line.qx.data();
  args.lower = {lower_offsets.data(), lower_px.data(), lower_py.data()};
  args.upper = {upper_offsets.data(), upper_px.data(), upper_py.data()};
  args.out = out.data();
  RowSweepScratch scratch;
  scalar->row_sweep(args, &scratch);
  return out;
}

void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
              std::bit_cast<uint64_t>(want[i]))
        << "pixel " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct KernelCase {
  KernelType kernel;
  bool compensated;
};

std::string CaseName(const ::testing::TestParamInfo<KernelCase>& info) {
  return std::string(KernelTypeName(info.param.kernel)) +
         (info.param.compensated ? "_compensated" : "_plain");
}

class BucketSweepTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BucketSweepTest, MatchesTheScalarReferenceAndTheRunSweep) {
  const KernelCase& c = GetParam();
  for (const size_t m : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{997}}) {
    for (const int width : {1, 5, 31, 33}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " width=" +
                   std::to_string(width));
      const Line line =
          MakeLine(m, width, 0xB0C4E7 + m * 64 + static_cast<uint64_t>(width));
      const std::vector<double> reference =
          RunBucketSweep(GetScalarOps(), line, c.kernel, c.compensated);
      const std::vector<double> runs =
          RunCountingSortAndRowSweep(line, c.kernel, c.compensated);
      double peak = 0.0;
      for (const double v : runs) peak = std::max(peak, std::abs(v));
      for (const SimdOps* ops : AvailableBackends()) {
        SCOPED_TRACE(SimdLevelName(ops->level));
        const std::vector<double> got =
            RunBucketSweep(ops, line, c.kernel, c.compensated);
        ExpectBitIdentical(got, reference);
        if (c.kernel == KernelType::kUniform) {
          ExpectBitIdentical(got, runs);
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_LE(std::abs(got[i] - runs[i]), kPeakRelError * peak)
              << "pixel " << i << ": " << got[i] << " vs " << runs[i];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BucketSweepTest,
    ::testing::Values(KernelCase{KernelType::kUniform, true},
                      KernelCase{KernelType::kUniform, false},
                      KernelCase{KernelType::kEpanechnikov, true},
                      KernelCase{KernelType::kEpanechnikov, false},
                      KernelCase{KernelType::kQuartic, true},
                      KernelCase{KernelType::kQuartic, false}),
    CaseName);

TEST(BucketSweepSemanticsTest, TheLinesCoverEveryBucketCase) {
  // The cases above are only as good as the lines they run on.
  const Line line = MakeLine(997, 31, 0xB0C4E7 + 997 * 64 + 31);
  const int32_t park = line.xs.count;
  size_t clamped = 0;
  size_t parked = 0;
  size_t shared = 0;
  size_t spanning = 0;
  size_t duplicates = 0;
  for (size_t i = 0; i < line.m(); ++i) {
    clamped += line.lower_idx[i] == 0 && line.upper_idx[i] == 0;
    parked += line.lower_idx[i] == park && line.upper_idx[i] == park;
    shared += line.lower_idx[i] == line.upper_idx[i] &&
              line.lower_idx[i] > 0 && line.lower_idx[i] < park;
    spanning += line.lower_idx[i] < line.upper_idx[i];
    duplicates += i > 0 && line.ex[i] == line.ex[i - 1] &&
                  line.ey[i] == line.ey[i - 1];
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(parked, 0u);
  EXPECT_GT(shared, 0u);
  EXPECT_GT(spanning, line.m() / 2);
  EXPECT_GT(duplicates, 0u);
}

TEST(BucketSweepSemanticsTest, ClampedParkedAndSharedBucketsAddNothing) {
  // Pixels at 0.5, 1.5, ..., 7.5. Uniform counts are exact, so each
  // pixel's density is w/b times the number of intervals covering it.
  const GridAxis xs{0.5, 1.0, 8};
  const double b = 0.25;
  const double k = 0.0;
  const std::vector<Point> points = {
      {-50.0, k},  // both endpoints clamped into bucket 0
      {90.0, k},   // both parked at bucket X
      {2.0, k},    // [1.75, 2.25]: both endpoints in bucket 2
      {3.5, k},    // [3.25, 3.75]: covers pixel 3 only
      {3.5, k},    // the same point again
  };
  Line line;
  line.xs = xs;
  line.k = k;
  line.bandwidth = b;
  line.weight = 1.0;
  for (const Point& p : points) {
    line.ex.push_back(p.x);
    line.ey.push_back(p.y);
    line.lower_idx.push_back(LowerBucket(WorldX(p.x - b), xs));
    line.upper_idx.push_back(UpperBucket(WorldX(p.x + b), xs));
  }
  ASSERT_EQ(line.lower_idx[0], 0);
  ASSERT_EQ(line.upper_idx[0], 0);
  ASSERT_EQ(line.lower_idx[1], xs.count);
  ASSERT_EQ(line.upper_idx[1], xs.count);
  ASSERT_EQ(line.lower_idx[2], line.upper_idx[2]);
  line.origin = RowLocalOrigin(xs, WorldY(k));
  for (int ix = 0; ix < xs.count; ++ix) {
    line.qx.push_back(xs.Coord(ix) - line.origin.x);
  }
  for (const SimdOps* ops : AvailableBackends()) {
    SCOPED_TRACE(SimdLevelName(ops->level));
    for (const bool compensated : {true, false}) {
      const std::vector<double> got =
          RunBucketSweep(ops, line, KernelType::kUniform, compensated);
      for (int ix = 0; ix < xs.count; ++ix) {
        EXPECT_EQ(got[static_cast<size_t>(ix)], ix == 3 ? 2.0 / b : 0.0)
            << "pixel " << ix;
      }
    }
  }
}

}  // namespace
}  // namespace slam
