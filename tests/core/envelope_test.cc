#include "core/envelope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "kdv/grid.h"
#include "testing/test_util.h"
#include "util/random.h"

namespace slam {
namespace {

using testing::RandomPoints;

TEST(FindEnvelopeTest, FiltersByYDistance) {
  const std::vector<Point> pts{{0, 0}, {5, 1}, {9, -2}, {3, 2.01}, {7, -2.01}};
  std::vector<Point> env;
  FindEnvelope(pts, WorldY(0.0), 2.0, &env);
  ASSERT_EQ(env.size(), 3u);  // y in [-2, 2]
  for (const Point& p : env) EXPECT_LE(std::abs(p.y), 2.0);
}

TEST(FindEnvelopeTest, BoundaryIsInclusive) {
  const std::vector<Point> pts{{1, 2.0}, {1, -2.0}};
  std::vector<Point> env;
  FindEnvelope(pts, WorldY(0.0), 2.0, &env);
  EXPECT_EQ(env.size(), 2u);  // |k - p.y| == b counts (Definition 1)
}

TEST(FindEnvelopeTest, ClearsPreviousContents) {
  const std::vector<Point> pts{{0, 0}};
  std::vector<Point> env{{9, 9}, {8, 8}};
  FindEnvelope(pts, WorldY(0.0), 1.0, &env);
  EXPECT_EQ(env.size(), 1u);
}

TEST(FindEnvelopeTest, EmptyInputs) {
  std::vector<Point> env;
  FindEnvelope({}, WorldY(0.0), 1.0, &env);
  EXPECT_TRUE(env.empty());
  const std::vector<Point> pts{{0, 100}};
  FindEnvelope(pts, WorldY(0.0), 1.0, &env);
  EXPECT_TRUE(env.empty());
}

/// Stable-sorts by y with the `<` the sweep driver checks for.
std::vector<Point> SortedByY(std::vector<Point> pts) {
  std::stable_sort(pts.begin(), pts.end(), [](const Point& a, const Point& b) {
    return a.y < b.y;
  });
  return pts;
}

/// Walks one cursor over the rows `ks` (non-decreasing) and requires, at
/// every row, exactly the sequence FindEnvelope scans out of the same
/// sorted points. Returns the envelope sizes for further checks.
std::vector<size_t> ExpectCursorIsTheScan(const std::vector<Point>& sorted,
                                          const std::vector<double>& ks,
                                          double bandwidth) {
  SortedEnvelopeCursor cursor(sorted);
  std::vector<Point> expected;
  std::vector<size_t> sizes;
  for (const double k : ks) {
    FindEnvelope(sorted, WorldY(k), bandwidth, &expected);
    const std::span<const Point> got = cursor.Advance(WorldY(k), bandwidth);
    EXPECT_EQ(got.size(), expected.size()) << "k=" << k;
    for (size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
      EXPECT_EQ(got[i].x, expected[i].x) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].y, expected[i].y) << "k=" << k << " i=" << i;
    }
    sizes.push_back(got.size());
  }
  return sizes;
}

/// The row coordinates of a sweep, computed the way Grid::YCoord does.
std::vector<double> Rows(double origin, double gap, int count) {
  const GridAxis axis{origin, gap, count};
  std::vector<double> ks;
  for (int i = 0; i < count; ++i) ks.push_back(axis.Coord(i));
  return ks;
}

TEST(SortedEnvelopeCursorTest, MatchesFindEnvelopeAtEveryRow) {
  const auto sorted = SortedByY(RandomPoints(2000, 100.0, 181));
  Rng rng(191);
  for (int trial = 0; trial < 20; ++trial) {
    const double b = rng.Uniform(0.1, 20.0);
    const int count = 1 + static_cast<int>(rng.Uniform(1.0, 200.0));
    const double gap = 120.0 / count;
    ExpectCursorIsTheScan(sorted, Rows(-10.0, gap, count), b);
  }
}

TEST(SortedEnvelopeCursorTest, BoundaryAtExactlyBAndOneUlpPast) {
  // b = 2 and coordinates in [4, 16): k − y is exact at the pixel rows,
  // and the rows one ulp outside them are more than b from a point by a
  // representable margin.
  const double b = 2.0;
  const auto sorted = SortedByY({{0, 7.5}, {1, 5.5}, {2, 9.5}, {3, 7.5}});
  const double below = std::nextafter(5.5, 0.0);
  const double above = std::nextafter(9.5, 100.0);
  const auto sizes =
      ExpectCursorIsTheScan(sorted, {below, 5.5, 7.5, 9.5, above}, b);
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes[0], 1u);  // y = 5.5 only: the 7.5s are one ulp past b
  EXPECT_EQ(sizes[1], 3u);  // 5.5 and both 7.5s, at exactly b
  EXPECT_EQ(sizes[2], 4u);  // 5.5 and 9.5 at exactly b
  EXPECT_EQ(sizes[3], 3u);  // both 7.5s at exactly b
  EXPECT_EQ(sizes[4], 1u);  // the 7.5s are one ulp past b again
}

TEST(SortedEnvelopeCursorTest, DuplicateYValuesComeInInputOrder) {
  // Ties keep their input order under the stable sort, and the scan emits
  // them in that order; so must the cursor.
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({static_cast<double>(i), static_cast<double>(i % 4)});
  }
  const auto sorted = SortedByY(pts);
  ExpectCursorIsTheScan(sorted, Rows(-2.0, 0.5, 17), 1.0);
  ExpectCursorIsTheScan(sorted, {1.0, 1.0, 2.0}, 0.0);  // b = 0: ties only
}

TEST(SortedEnvelopeCursorTest, EmptyInput) {
  SortedEnvelopeCursor cursor({});
  EXPECT_TRUE(cursor.Advance(WorldY(0.0), 10.0).empty());
  EXPECT_TRUE(cursor.Advance(WorldY(5.0), 10.0).empty());
}

TEST(SortedEnvelopeCursorTest, RowsBeyondTheDataAreEmpty) {
  const auto sorted = SortedByY(RandomPoints(100, 10.0, 197));
  const auto sizes =
      ExpectCursorIsTheScan(sorted, {-1000.0, -5.1, 5.0, 15.1, 1000.0}, 5.0);
  EXPECT_EQ(sizes[0], 0u);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_EQ(sizes[2], 100u);
  EXPECT_EQ(sizes[3], 0u);
  EXPECT_EQ(sizes[4], 0u);
}

TEST(SortedEnvelopeCursorTest, LinesMoreThanTwoBApartSkipThePointsBetween) {
  // Two lines 100 apart with b = 2: the points with y in (2, 98) belong to
  // neither envelope and must not enter the second one on their way past.
  const auto sorted = SortedByY(RandomPoints(1000, 100.0, 199));
  ExpectCursorIsTheScan(sorted, {0.0, 100.0}, 2.0);
  SortedEnvelopeCursor cursor(sorted);
  (void)cursor.Advance(WorldY(0.0), 2.0);
  const auto far = cursor.Advance(WorldY(100.0), 2.0);
  ASSERT_FALSE(far.empty());
  for (const Point& p : far) EXPECT_GE(p.y, 98.0);
}

TEST(SortedEnvelopeCursorTest, MatchesFindEnvelopeAtLargeOffsets) {
  // At ±1e7 the differences k − y round; the cursor must round them the
  // way the scan does, including on the rows that land near |k − y| == b.
  for (const double offset : {1e7, -1e7}) {
    std::vector<Point> pts = RandomPoints(1500, 100.0, 211);
    for (Point& p : pts) {
      p.x += offset;
      p.y += offset;
    }
    const auto sorted = SortedByY(pts);
    ExpectCursorIsTheScan(sorted, Rows(offset - 5.0, 0.37, 300), 3.7);
    ExpectCursorIsTheScan(sorted, Rows(offset - 5.0, 1.3, 90), 0.61);
  }
}

}  // namespace
}  // namespace slam
