// The pixel grid the sweep line algorithms operate on: pixel centers laid
// out on a uniform lattice, exactly the paper's q_1..q_X per row with gap
// g_x (Section 3.5 relies on the uniform gap for O(1) bucket assignment).
#pragma once

#include <string>

#include "geom/point.h"
#include "geom/viewport.h"
#include "util/result.h"
#include "util/units.h"

namespace slam {

/// One axis of the lattice: `count` coordinates origin, origin+gap, ...
struct GridAxis {
  double origin = 0.0;  // coordinate of the first pixel center
  double gap = 1.0;     // distance between consecutive pixel centers
  int count = 0;

  double Coord(int i) const { return origin + i * gap; }
  double last() const { return Coord(count - 1); }
};

class Grid {
 public:
  Grid() = default;

  /// Axis gaps must be positive and counts positive.
  static Result<Grid> Create(const GridAxis& x_axis, const GridAxis& y_axis);

  /// Pixel centers of a viewport: X×Y lattice over its region.
  static Grid FromViewport(const Viewport& viewport);

  const GridAxis& x_axis() const { return x_; }
  const GridAxis& y_axis() const { return y_; }
  int width() const { return x_.count; }    // X
  int height() const { return y_.count; }   // Y
  int64_t pixel_count() const {
    return static_cast<int64_t>(x_.count) * y_.count;
  }

  Point PixelCenter(int ix, int iy) const {
    return {x_.Coord(ix), y_.Coord(iy)};
  }

  // Typed coordinate-space API (util/units.h, DESIGN.md §13). Pixel ->
  // world is total; world -> pixel is checked (the world coordinate may
  // fall outside the lattice) and returns the pixel whose center is
  // nearest, i.e. whose half-open cell [center − gap/2, center + gap/2)
  // contains the coordinate.
  WorldX XCoord(PixelX ix) const { return WorldX(x_.Coord(ix.value())); }
  WorldY YCoord(PixelY iy) const { return WorldY(y_.Coord(iy.value())); }
  Point PixelCenter(PixelX ix, PixelY iy) const {
    return {x_.Coord(ix.value()), y_.Coord(iy.value())};
  }
  /// OutOfRange when the coordinate is beyond half a gap outside the
  /// first/last pixel center.
  Result<PixelX> ToPixelX(WorldX wx) const;
  Result<PixelY> ToPixelY(WorldY wy) const;

  /// Swaps the axes — the RAO transformation (paper Section 3.6) runs the
  /// row sweep on the transposed problem when it sweeps columns
  /// (core/rao.h).
  Grid Transposed() const {
    Grid g;
    g.x_ = y_;
    g.y_ = x_;
    return g;
  }

  /// Grid translated by (-dx, -dy); used to recenter coordinates near the
  /// origin for floating-point conditioning.
  Grid Translated(double dx, double dy) const {
    Grid g = *this;
    g.x_.origin -= dx;
    g.y_.origin -= dy;
    return g;
  }

  std::string ToString() const;

 private:
  GridAxis x_;
  GridAxis y_;
};

/// Free-function spellings of the checked world -> pixel conversions; the
/// axis-specific parameter type picks the axis, so there is no way to ask
/// for "the pixel of this y coordinate along x".
Result<PixelX> ToPixel(WorldX wx, const Grid& grid);
Result<PixelY> ToPixel(WorldY wy, const Grid& grid);

}  // namespace slam
