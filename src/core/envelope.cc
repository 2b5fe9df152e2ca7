#include "core/envelope.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/narrow.h"

namespace slam {

namespace {

/// The first line j in [0, L] whose coordinate passes `test`, L when none
/// does; `test` must switch from false to true at most once as k grows.
/// `estimate` is where it switches in exact arithmetic. It is clamped to
/// [0, L] in double (a NaN reads as 0) before the int conversion, then
/// walked to the exact line with the test itself.
template <typename Test>
int FirstLineWhere(const GridAxis& along, double estimate, Test test) {
  const double t = std::ceil(estimate);
  int j = 0;
  if (t >= static_cast<double>(along.count)) {
    j = along.count;
  } else if (t > 0.0) {
    // In (0, L) by the checks above; a NaN fails both and stays 0.
    j = static_cast<int>(t);  // lint:allow(narrowing-cast) NOLINT(slam-narrowing-cast)
  }
  while (j > 0 && test(along.Coord(j - 1))) --j;
  while (j < along.count && !test(along.Coord(j))) ++j;
  return j;
}

}  // namespace

void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out) {
  out->clear();
  for (const Point& p : points) {
    if (std::abs(k - WorldY(p.y)) <= bandwidth) out->push_back(p);
  }
}

LaneRange SortedEnvelopeCursor::Advance(WorldY k, double bandwidth) {
  // FindEnvelope's |k − y| <= b split at its sign (negation is exact, so
  // the two halves are the same test): drop from the front while the row
  // is more than b above the point, admit at the back while it is not
  // more than b below.
  while (lo_ < y_.size() && k - y_.Load(lo_) > bandwidth) ++lo_;
  // Points the front just dropped never need admitting at the back.
  hi_ = std::max(hi_, lo_);
  while (hi_ < y_.size() && k - y_.Load(hi_) >= -bandwidth) ++hi_;
  return {lo_, hi_};
}

Status OrderByReach(std::span<const Point> points, const SweepFrame& frame,
                    const GridAxis& along, const GridAxis& across,
                    double bandwidth, const ExecContext* exec,
                    ScopedMemoryCharge* charge, SweptCopy* copy,
                    std::vector<size_t>* envelope_sizes) {
  const double b = bandwidth;
  const size_t lines = CheckedSize(along.count);
  // Keys run over [0, 2L]; L <= INT_MAX, so the sentinel of a dropped
  // point sits above every key.
  constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();
  // Both loops poll before their first point and then every 2^16 points.
  constexpr size_t kPollMask = (size_t{1} << 16) - 1;
  const size_t lane_bytes = points.size() * sizeof(uint32_t) +
                            (2 * lines + 2 + lines + 1) * sizeof(size_t);
  SLAM_RETURN_NOT_OK(charge->Update(lane_bytes));
  std::vector<uint32_t> keys(points.size());
  // counts[key + 1] is the number of kept points with that key, so its
  // prefix sums are each key's first slot in the copy.
  std::vector<size_t> counts(2 * lines + 2, 0);
  // One point opens at `first` and closes at `past`; the running sum of
  // these steps (unsigned, wrapping as it falls) is each line's m_j.
  std::vector<size_t>& steps = *envelope_sizes;
  steps.assign(lines + 1, 0);
  const double across_first = across.Coord(0);
  const double across_last = across.last();
  const double reach = b / along.gap;
  for (size_t i = 0; i < points.size(); ++i) {
    if ((i & kPollMask) == 0) {
      SLAM_RETURN_NOT_OK(ExecCheck(exec, "engine/reach_keys"));
    }
    const Point s = frame(points[i]);
    const double t = (s.y - along.origin) / along.gap;
    const int first = FirstLineWhere(
        along, t - reach, [&](double k) { return k - s.y >= -b; });
    const int past = FirstLineWhere(
        along, t + reach, [&](double k) { return k - s.y > b; });
    if (first < past && across_first - s.x <= b && across_last - s.x >= -b) {
      const auto key =
          CheckedNarrow<uint32_t>(CheckedSize(first) + CheckedSize(past));
      keys[i] = key;
      ++counts[key + 1];
      ++steps[CheckedSize(first)];
      --steps[CheckedSize(past)];
    } else {
      keys[i] = kDropped;
    }
  }
  for (size_t key = 1; key < counts.size(); ++key) {
    counts[key] += counts[key - 1];
  }
  const size_t kept = counts.back();
  const size_t copy_bytes = kept * 2 * sizeof(double);
  SLAM_RETURN_NOT_OK(charge->Update(lane_bytes + copy_bytes));
  copy->x.resize(kept);
  copy->y.resize(kept);
  SweptLanes lanes = copy->Lanes();
  for (size_t i = 0; i < points.size(); ++i) {
    if ((i & kPollMask) == 0) {
      SLAM_RETURN_NOT_OK(ExecCheck(exec, "engine/reach_scatter"));
    }
    if (keys[i] == kDropped) continue;
    const Point s = frame(points[i]);
    const size_t slot = counts[keys[i]]++;
    lanes.x.Store(slot, WorldX(s.x));
    lanes.y.Store(slot, WorldY(s.y));
  }
  for (size_t j = 1; j < lines; ++j) steps[j] += steps[j - 1];
  steps.resize(lines);
  std::vector<uint32_t>().swap(keys);
  std::vector<size_t>().swap(counts);
  return charge->Update(copy_bytes + (lines + 1) * sizeof(size_t));
}

LaneRange ReachingRun(TypedLane<WorldY> y, const GridAxis& along, int begin,
                      int end, double bandwidth) {
  const WorldY first(along.Coord(begin));
  const WorldY last(along.Coord(end - 1));
  // The first index in [lo, y.size()) at which `holds` turns false; it
  // holds on a prefix of the lane.
  const auto partition_point = [&y](size_t lo, auto holds) {
    size_t hi = y.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (holds(y.Load(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const size_t lo =
      partition_point(0, [&](WorldY s) { return first - s > bandwidth; });
  const size_t hi =
      partition_point(lo, [&](WorldY s) { return last - s >= -bandwidth; });
  return {lo, hi};
}

}  // namespace slam
