#include "core/envelope.h"

#include <algorithm>
#include <cmath>

namespace slam {

void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out) {
  out->clear();
  for (const Point& p : points) {
    if (std::abs(k - WorldY(p.y)) <= bandwidth) out->push_back(p);
  }
}

std::span<const Point> SortedEnvelopeCursor::Advance(WorldY k,
                                                     double bandwidth) {
  // FindEnvelope's |k − y| <= b split at its sign (negation is exact, so
  // the two halves are the same test): drop from the front while the row
  // is more than b above the point, admit at the back while it is not
  // more than b below.
  while (lo_ < points_.size() && k - WorldY(points_[lo_].y) > bandwidth) {
    ++lo_;
  }
  // Points the front just dropped never need admitting at the back.
  hi_ = std::max(hi_, lo_);
  while (hi_ < points_.size() && k - WorldY(points_[hi_].y) >= -bandwidth) {
    ++hi_;
  }
  return points_.subspan(lo_, hi_ - lo_);
}

}  // namespace slam
