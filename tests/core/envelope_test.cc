#include "core/envelope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kdv/grid.h"
#include "testing/test_util.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace slam {
namespace {

using testing::ClusteredPoints;
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

/// The points as a copy's x and y lanes, in the same order.
SweptCopy AsLanes(std::span<const Point> points) {
  SweptCopy copy;
  for (const Point& p : points) {
    copy.x.push_back(p.x);
    copy.y.push_back(p.y);
  }
  return copy;
}

/// The points [run.begin, run.end) of the copy's lanes.
std::vector<Point> PointsOf(const SweptCopy& copy, LaneRange run) {
  std::vector<Point> out;
  for (size_t i = run.begin; i < run.end; ++i) {
    out.push_back({copy.x[i], copy.y[i]});
  }
  return out;
}

/// Walks one cursor over the rows `ks` (non-decreasing) and requires, at
/// every row, exactly the sequence FindEnvelope scans out of the same
/// sorted points. Returns the envelope sizes for further checks.
std::vector<size_t> ExpectCursorIsTheScan(const std::vector<Point>& sorted,
                                          const std::vector<double>& ks,
                                          double bandwidth) {
  SweptCopy lanes = AsLanes(sorted);
  SortedEnvelopeCursor cursor(lanes.Lanes().y);
  std::vector<Point> expected;
  std::vector<size_t> sizes;
  for (const double k : ks) {
    FindEnvelope(sorted, WorldY(k), bandwidth, &expected);
    const std::vector<Point> got =
        PointsOf(lanes, cursor.Advance(WorldY(k), bandwidth));
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
  SortedEnvelopeCursor cursor(TypedLane<WorldY>{});
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
  SweptCopy lanes = AsLanes(sorted);
  SortedEnvelopeCursor cursor(lanes.Lanes().y);
  (void)cursor.Advance(WorldY(0.0), 2.0);
  const auto far = PointsOf(lanes, cursor.Advance(WorldY(100.0), 2.0));
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

/// An across axis wide enough that no test point is dropped across it.
constexpr GridAxis kWideAcross{-1e9, 1e9, 3};

/// The input mapped into `frame`, for the scan to filter.
std::vector<Point> InFrame(const std::vector<Point>& input,
                           const SweepFrame& frame) {
  std::vector<Point> out;
  for (const Point& p : input) out.push_back(frame(p));
  return out;
}

std::vector<Point> SortedByXY(std::span<const Point> pts) {
  std::vector<Point> out(pts.begin(), pts.end());
  std::sort(out.begin(), out.end(), [](const Point& a, const Point& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  return out;
}

void ExpectSameMultiset(std::span<const Point> got,
                        std::span<const Point> expected,
                        const std::string& where) {
  const std::vector<Point> g = SortedByXY(got);
  const std::vector<Point> e = SortedByXY(expected);
  ASSERT_EQ(g.size(), e.size()) << where;
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].x, e[i].x) << where << " i=" << i;
    EXPECT_EQ(g[i].y, e[i].y) << where << " i=" << i;
  }
}

struct ReachOrdered {
  SweptCopy copy;
  std::vector<Point> points;  // the copy's lanes, point by point
  std::vector<size_t> envelope_sizes;
};

ReachOrdered OrderedByReach(const std::vector<Point>& input,
                            const GridAxis& along, double bandwidth,
                            const SweepFrame& frame = {},
                            const GridAxis& across = kWideAcross) {
  ReachOrdered out;
  ScopedMemoryCharge charge(nullptr, "test");
  EXPECT_TRUE(OrderByReach(input, frame, along, across, bandwidth, nullptr,
                           &charge, &out.copy, &out.envelope_sizes)
                  .ok());
  EXPECT_EQ(out.copy.x.size(), out.copy.y.size());
  out.points = PointsOf(out.copy, {0, out.copy.size()});
  return out;
}

/// Requires, at every line of `along`, that a cursor over the reach-ordered
/// copy yields FindEnvelope's multiset of the points in the frame and that
/// m_j is that run's length; and that the copy holds exactly the points
/// some line admits. Returns the envelope sizes.
std::vector<size_t> ExpectReachOrderIsTheScan(const std::vector<Point>& input,
                                              const GridAxis& along,
                                              double bandwidth,
                                              const SweepFrame& frame = {}) {
  ReachOrdered reach = OrderedByReach(input, along, bandwidth, frame);
  const std::vector<Point> framed = InFrame(input, frame);
  EXPECT_EQ(reach.envelope_sizes.size(), static_cast<size_t>(along.count));
  SortedEnvelopeCursor cursor(reach.copy.Lanes().y);
  std::vector<Point> expected;
  std::vector<Point> reached;  // every line's envelope, with repeats
  for (int j = 0; j < along.count; ++j) {
    const WorldY k(along.Coord(j));
    FindEnvelope(framed, k, bandwidth, &expected);
    const std::vector<Point> got =
        PointsOf(reach.copy, cursor.Advance(k, bandwidth));
    ExpectSameMultiset(got, expected, "line " + std::to_string(j));
    EXPECT_EQ(reach.envelope_sizes[static_cast<size_t>(j)], got.size())
        << "line " << j;
    reached.insert(reached.end(), expected.begin(), expected.end());
  }
  // Kept iff some line admits it: the scan's union, without repeats.
  std::vector<Point> kept;
  for (const Point& p : framed) {
    for (int j = 0; j < along.count; ++j) {
      if (std::abs(along.Coord(j) - p.y) <= bandwidth) {
        kept.push_back(p);
        break;
      }
    }
  }
  ExpectSameMultiset(reach.points, kept, "the copy");
  return reach.envelope_sizes;
}

TEST(ReachOrderTest, CursorYieldsTheScansEnvelopeAtEveryLine) {
  const auto pts = RandomPoints(2000, 100.0, 223);
  Rng rng(227);
  for (int trial = 0; trial < 20; ++trial) {
    const double b = rng.Uniform(0.1, 20.0);
    const int count = 1 + static_cast<int>(rng.Uniform(1.0, 200.0));
    ExpectReachOrderIsTheScan(pts, GridAxis{-10.0, 120.0 / count, count}, b);
  }
}

TEST(ReachOrderTest, BoundaryAtExactlyBAndOneUlpPast) {
  // Lines at 6, 8, 10, 12 with b = 2 and points in (2, 16): every k − y
  // below is exact, so a point at exactly k ± b is in line k's envelope
  // and one an ulp past is not.
  const double b = 2.0;
  const GridAxis along{6.0, 2.0, 4};
  std::vector<Point> pts;
  for (const double y : {4.0, 10.0, 14.0}) {
    pts.push_back({0.0, y});
    pts.push_back({1.0, std::nextafter(y, 0.0)});
    pts.push_back({2.0, std::nextafter(y, 100.0)});
  }
  const auto sizes = ExpectReachOrderIsTheScan(pts, along, b);
  EXPECT_EQ(sizes[0], 2u);  // line 6: 4 at exactly b and 4 + ulp
  EXPECT_EQ(sizes[1], 2u);  // line 8: 10 at exactly b and 10 − ulp
  EXPECT_EQ(sizes[2], 3u);  // line 10: the three 10s
  EXPECT_EQ(sizes[3], 4u);  // line 12: 10, 10 + ulp, 14 and 14 − ulp
  // 4 − ulp and 14 + ulp are an ulp past b from every line.
  EXPECT_EQ(OrderedByReach(pts, along, b).points.size(), 7u);
}

TEST(ReachOrderTest, DuplicateSweptCoordinates) {
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({static_cast<double>(i), static_cast<double>(i % 4)});
  }
  ExpectReachOrderIsTheScan(pts, GridAxis{-2.0, 0.5, 17}, 1.0);
  ExpectReachOrderIsTheScan(pts, GridAxis{1.0, 1.0, 2}, 0.0);  // ties only
}

TEST(ReachOrderTest, PointsBetweenLinesMoreThanTwoBApartAreDropped) {
  // Lines 0 and 100 with b = 2: a point with y in (2, 98) reaches neither
  // line, so the copy leaves it out.
  const auto pts = RandomPoints(1000, 100.0, 229);
  ExpectReachOrderIsTheScan(pts, GridAxis{0.0, 100.0, 2}, 2.0);
  const ReachOrdered reach = OrderedByReach(pts, GridAxis{0.0, 100.0, 2}, 2.0);
  ASSERT_FALSE(reach.points.empty());
  EXPECT_LT(reach.points.size(), pts.size());
  for (const Point& p : reach.points) {
    EXPECT_TRUE(p.y <= 2.0 || p.y >= 98.0) << p.y;
  }
}

TEST(ReachOrderTest, PointsBeyondTheFirstAndLastLine) {
  // The points span [0, 10); the lines cover [4, 6] only, so points more
  // than b beyond either end reach no line.
  const auto pts = RandomPoints(500, 10.0, 233);
  const auto sizes =
      ExpectReachOrderIsTheScan(pts, GridAxis{4.0, 0.25, 9}, 1.5);
  EXPECT_GT(sizes.front(), 0u);
  EXPECT_EQ(OrderedByReach(pts, GridAxis{40.0, 1.0, 5}, 1.5).points.size(),
            0u);
  EXPECT_EQ(OrderedByReach(pts, GridAxis{-40.0, 1.0, 5}, 1.5).points.size(),
            0u);
}

TEST(ReachOrderTest, LargeOffsetsRoundLikeTheScan) {
  for (const double offset : {1e7, -1e7}) {
    std::vector<Point> pts = RandomPoints(1500, 100.0, 239);
    for (Point& p : pts) {
      p.x += offset;
      p.y += offset;
    }
    ExpectReachOrderIsTheScan(pts, GridAxis{offset - 5.0, 0.37, 300}, 3.7);
    ExpectReachOrderIsTheScan(pts, GridAxis{offset - 5.0, 1.3, 90}, 0.61);
    // Recentered, as the engine's frame does it.
    const SweepFrame shifted{{offset, offset}, false};
    ExpectReachOrderIsTheScan(pts, GridAxis{-5.0, 0.37, 300}, 3.7, shifted);
  }
}

TEST(ReachOrderTest, RaoColumnsSweepTheXCoordinate) {
  // A column sweep runs in the transposed frame: the swept coordinate is
  // the input's x.
  const auto pts = ClusteredPoints(1500, 100.0, 4, 241);
  const SweepFrame columns{{0.0, 0.0}, true};
  ExpectReachOrderIsTheScan(pts, GridAxis{0.0, 0.8, 125}, 2.5, columns);
  const SweepFrame both{{50.0, -20.0}, true};
  ExpectReachOrderIsTheScan(pts, GridAxis{-50.0, 0.8, 125}, 2.5, both);
  const ReachOrdered reach =
      OrderedByReach(pts, GridAxis{0.0, 0.8, 125}, 2.5, columns);
  for (size_t i = 1; i < reach.points.size(); ++i) {
    // Reach order is nearly x order of the input: never more than the two
    // lines either side of b apart.
    EXPECT_LE(reach.points[i - 1].y - reach.points[i].y, 2 * 2.5 + 2 * 0.8);
  }
}

TEST(ReachOrderTest, PointsFartherThanBAcrossTheSweptAxisAreDropped) {
  const std::vector<Point> pts{{-3.0, 5.0},  {-2.0, 5.0}, {0.0, 5.0},
                               {10.0, 5.0}, {12.0, 5.0}, {12.5, 5.0}};
  const ReachOrdered reach = OrderedByReach(
      pts, GridAxis{5.0, 1.0, 1}, 2.0, {}, GridAxis{0.0, 1.0, 11});
  // Across [0, 10] with b = 2: x = −3 and 12.5 are farther than b.
  ExpectSameMultiset(reach.points,
                     std::vector<Point>{{-2.0, 5.0}, {0.0, 5.0},
                                        {10.0, 5.0}, {12.0, 5.0}},
                     "kept");
  EXPECT_EQ(reach.envelope_sizes.front(), 4u);
}

TEST(ReachOrderTest, StripeRunIsThePointsReachingItsLines) {
  const auto pts = ClusteredPoints(3000, 100.0, 5, 251);
  const GridAxis along{-3.0, 0.7, 150};
  const double b = 2.9;
  ReachOrdered reach = OrderedByReach(pts, along, b);
  Rng rng(257);
  for (int trial = 0; trial < 40; ++trial) {
    int begin = static_cast<int>(rng.NextBelow(150));
    int end = static_cast<int>(rng.NextBelow(150));
    if (begin > end) std::swap(begin, end);
    ++end;
    const LaneRange run =
        ReachingRun(reach.copy.Lanes().y, along, begin, end, b);
    std::vector<Point> reaching;
    for (const Point& p : reach.points) {
      for (int j = begin; j < end; ++j) {
        if (std::abs(along.Coord(j) - p.y) <= b) {
          reaching.push_back(p);
          break;
        }
      }
    }
    const std::string where =
        "lines [" + std::to_string(begin) + ", " + std::to_string(end) + ")";
    ExpectSameMultiset(PointsOf(reach.copy, run), reaching, where);
    // A cursor over the run yields each line's run of the whole copy: the
    // same points, at indices offset by the run's start.
    SortedEnvelopeCursor whole(reach.copy.Lanes().y);
    SortedEnvelopeCursor stripe(reach.copy.Lanes(run).y);
    for (int j = 0; j < end; ++j) {
      const WorldY k(along.Coord(j));
      const LaneRange expected = whole.Advance(k, b);
      if (j < begin) continue;
      const LaneRange got = stripe.Advance(k, b);
      EXPECT_EQ(run.begin + got.begin, expected.begin)
          << where << " line " << j;
      EXPECT_EQ(got.size(), expected.size()) << where << " line " << j;
      EXPECT_EQ(got.size(), reach.envelope_sizes[static_cast<size_t>(j)]);
    }
  }
}

TEST(ReachOrderTest, ChargesTheKeyLaneOnlyWhileItLives) {
  const auto pts = RandomPoints(1000, 100.0, 263);
  const GridAxis along{0.0, 1.0, 50};
  MemoryBudget budget(size_t{1} << 30);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  ScopedMemoryCharge charge(&exec, "test");
  SweptCopy ordered;
  std::vector<size_t> sizes;
  ASSERT_TRUE(OrderByReach(pts, {}, along, kWideAcross, 3.0, nullptr, &charge,
                           &ordered, &sizes)
                  .ok());
  const size_t copy = ordered.size() * sizeof(Point);
  // On return: the copy and the envelope sizes (L + 1 entries' capacity).
  EXPECT_EQ(charge.charged_bytes(), copy + 51 * sizeof(size_t));
  // At the peak, also the key lane and the key histogram.
  EXPECT_EQ(budget.peak_bytes(), copy + pts.size() * sizeof(uint32_t) +
                                     (3 * 50 + 3) * sizeof(size_t));
  // A budget below the key lane refuses before any copy is made.
  MemoryBudget tight(pts.size() * sizeof(uint32_t));
  ExecContext tight_exec;
  tight_exec.set_memory_budget(&tight);
  ScopedMemoryCharge refused(&tight_exec, "test");
  ordered = SweptCopy();
  EXPECT_EQ(OrderByReach(pts, {}, along, kWideAcross, 3.0, nullptr, &refused,
                         &ordered, &sizes)
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ordered.size(), 0u);
}

}  // namespace
}  // namespace slam
