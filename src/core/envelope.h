// Envelope point set E(k) (paper Definition 1): the points whose
// y-coordinate is within the bandwidth of pixel row y = k. Every range set
// R(q) of a pixel in that row is a subset of E(k), so the sweep only ever
// touches envelope points.
//
// Two implementations of the same predicate, |k − p.y| <= b:
//  * FindEnvelope — the paper's O(n) per-row scan (Lemma 1).
//  * SortedEnvelopeCursor — our extension (DESIGN.md §4 item 4): over
//    points in reach order (OrderByReach), each row's envelope is a
//    contiguous run kept by two forward-only cursors, O(|E(k)| + Δ) per
//    row after one O(n + L) counting sort. It yields exactly the points
//    FindEnvelope admits from the same input, as a range of indices into
//    the copy's lanes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.h"
#include "kdv/grid.h"
#include "util/exec_context.h"
#include "util/result.h"
#include "util/units.h"

namespace slam {

/// Clears `out` and fills it with E(k) for the row at world coordinate
/// `k`. Taking WorldY (not a bare double) pins the unit: an envelope is
/// always cut along the swept axis, never by a pixel index or an x value.
void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out);

/// Indices [begin, end) into lanes of points: one line's envelope, or the
/// run of the swept copy a stripe reads.
struct LaneRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return end == begin; }
};

/// Walks the rows of a sweep over points in which, at every row, the
/// points the scan drops for being below the row (k − p.y > b) are a
/// prefix, and the points it admits (k − p.y >= −b) are a longer prefix.
/// Both prefixes only grow from one row to the next, since k − p.y only
/// rises with k (rounding is monotone). Points sorted by y have that
/// property, and so does the cheaper reach order (OrderByReach). The
/// envelope is the run between the two prefixes. The cursor reads only
/// the points' y lane.
class SortedEnvelopeCursor {
 public:
  /// `y`, the ordered points' y coordinates, must outlive the cursor.
  explicit SortedEnvelopeCursor(TypedLane<WorldY> y) : y_(y) {}

  /// E(k) as the indices of its points in the lane. Rows must come in
  /// non-decreasing k with the same bandwidth; the cursors never step back.
  LaneRange Advance(WorldY k, double bandwidth);

 private:
  TypedLane<WorldY> y_;
  size_t lo_ = 0;  // first point not dropped (k − y <= b)
  size_t hi_ = 0;  // first point not admitted (k − y < −b)
};

/// The frame a sweep runs in: an input point shifted by −shift (the
/// engine's recentering), then with x and y swapped when the swept lines
/// are columns of the output (RAO's column sweep, core/rao.h).
struct SweepFrame {
  Point shift{0.0, 0.0};
  bool transposed = false;

  Point operator()(const Point& p) const {
    const Point s{p.x - shift.x, p.y - shift.y};
    return transposed ? Point{s.y, s.x} : s;
  }
};

/// A run of the engine's swept copy as its two lanes, x across the swept
/// axis and y along it. A view over lanes the caller owns.
struct SweptLanes {
  TypedLane<WorldX> x;
  TypedLane<WorldY> y;
};

/// The engine's swept copy (DESIGN.md §4 item 4): the kept points in the
/// sweep frame and in reach order, as an x lane and a y lane, the same 16
/// bytes a point. The line passes read each envelope from both lanes in
/// place.
struct SweptCopy {
  std::vector<double> x;
  std::vector<double> y;

  size_t size() const { return y.size(); }
  /// Points [run.begin, run.end) of both lanes.
  SweptLanes Lanes(LaneRange run) {
    return {TypedLane<WorldX>(x.data() + run.begin, run.size()),
            TypedLane<WorldY>(y.data() + run.begin, run.size())};
  }
  SweptLanes Lanes() { return Lanes({0, size()}); }
};

/// Builds the engine's swept copy for the lines at k_j = along.Coord(j),
/// j in [0, L). In the sweep frame, with s a point's y coordinate,
/// first(p) is the first line whose k − s >= −b (the cursor's admit test)
/// and past(p) the first whose k − s > b (its drop test), L when there is
/// none; p is in the envelopes of lines [first, past). A point is kept iff
/// first < past and it lies within b of [across.Coord(0), across.last()]:
/// across the swept axis a dropped point is farther than b from every
/// pixel and adds zero to each.
///
/// `*copy` gets the kept points in the frame, stably counting-sorted by
/// first + past. Both only grow with s, so at every line the points the
/// cursor drops and the points it admits are prefixes of that order.
/// `*envelope_sizes` gets L entries, m_j = #{first <= j} − #{past <= j}:
/// line j's envelope size. The pass is O(n + L): one histogram pass and
/// one scatter pass over `points`. Each polls `exec` before its first
/// point and every 2^16 points after, at "engine/reach_keys" and
/// "engine/reach_scatter". `charge` pays for the key lane (4 bytes per
/// input point) and the histograms while they live; on return it holds the
/// copy and `*envelope_sizes`.
Status OrderByReach(std::span<const Point> points, const SweepFrame& frame,
                    const GridAxis& along, const GridAxis& across,
                    double bandwidth, const ExecContext* exec,
                    ScopedMemoryCharge* charge, SweptCopy* copy,
                    std::vector<size_t>* envelope_sizes);

/// The run of the swept copy (OrderByReach's order for `along`'s lines,
/// given by its y lane) that lines [begin, end) read: from the first point
/// not dropped at line `begin` to the first point not admitted at line
/// end − 1, each found by a binary search with the cursor's own test.
/// Every envelope of those lines is a run inside it, so a cursor over it
/// yields the same runs as one over the whole copy.
LaneRange ReachingRun(TypedLane<WorldY> y, const GridAxis& along, int begin,
                      int end, double bandwidth);

}  // namespace slam
