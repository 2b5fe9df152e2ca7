// Envelope point set E(k) (paper Definition 1): the points whose
// y-coordinate is within the bandwidth of pixel row y = k. Every range set
// R(q) of a pixel in that row is a subset of E(k), so the sweep only ever
// touches envelope points.
//
// Two implementations of the same predicate, |k − p.y| <= b:
//  * FindEnvelope — the paper's O(n) per-row scan (Lemma 1).
//  * SortedEnvelopeCursor — our extension (DESIGN.md §4 item 4): over
//    points sorted by y, each row's envelope is a contiguous run kept by
//    two forward-only cursors, O(|E(k)| + Δ) per row after one O(n log n)
//    sort. It yields exactly FindEnvelope's sequence on the same sorted
//    input.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.h"
#include "util/result.h"
#include "util/units.h"

namespace slam {

/// Clears `out` and fills it with E(k) for the row at world coordinate
/// `k`. Taking WorldY (not a bare double) pins the unit: an envelope is
/// always cut along the swept axis, never by a pixel index or an x value.
void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out);

/// Walks the rows of a sweep over points sorted by y (ascending, by `<`).
/// k − p.y only falls as p.y grows and only rises as k grows (rounding is
/// monotone), so the points the scan drops for being below the row
/// (k − p.y > b) are a prefix of the sorted order, the points it would
/// admit (k − p.y >= −b) are a longer prefix, and both prefixes only grow
/// from one row to the next. The envelope is the run between them.
class SortedEnvelopeCursor {
 public:
  /// `sorted_by_y` must outlive the cursor.
  explicit SortedEnvelopeCursor(std::span<const Point> sorted_by_y)
      : points_(sorted_by_y) {}

  /// E(k) as a subspan of the sorted points. Rows must come in
  /// non-decreasing k with the same bandwidth; the cursors never step back.
  std::span<const Point> Advance(WorldY k, double bandwidth);

 private:
  std::span<const Point> points_;
  size_t lo_ = 0;  // first point not dropped (k − y <= b)
  size_t hi_ = 0;  // first point not admitted (k − y < −b)
};

}  // namespace slam
