// The output raster of a KDV computation: one density value per pixel.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/units.h"

namespace slam {

class DensityMap {
 public:
  DensityMap() = default;
  /// Zero-initialized raster of width x height (both must be positive;
  /// checked by the factory).
  static Result<DensityMap> Create(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  int64_t pixel_count() const {
    return static_cast<int64_t>(width_) * height_;
  }
  bool empty() const { return values_.empty(); }

  double at(int ix, int iy) const {
    return values_[static_cast<size_t>(iy) * width_ + ix];
  }
  void set(int ix, int iy, double v) {
    values_[static_cast<size_t>(iy) * width_ + ix] = v;
  }

  // Typed coordinate-space accessors (util/units.h, DESIGN.md §13): the
  // subscripts are pixel indices and the cells are densities, and with
  // these overloads the compiler enforces both — at(iy, ix) transpositions
  // and density-as-coordinate leaks do not build.
  DensityValue at(PixelX ix, PixelY iy) const {
    return DensityValue(at(ix.value(), iy.value()));
  }
  void set(PixelX ix, PixelY iy, DensityValue v) {
    set(ix.value(), iy.value(), v.value());
  }

  /// Row-major (y-major) raw values.
  std::span<const double> values() const { return values_; }
  std::span<double> mutable_values() { return values_; }

  /// Direct row access for the sweep algorithms (writes one row at a time).
  std::span<double> mutable_row(int iy) {
    return std::span<double>(values_).subspan(
        static_cast<size_t>(iy) * width_, width_);
  }
  std::span<const double> row(int iy) const {
    return std::span<const double>(values_).subspan(
        static_cast<size_t>(iy) * width_, width_);
  }

  /// Typed row view for the sweep writers: a density lane addressed by a
  /// row index. The raw pointer the SIMD row sweep writes through comes
  /// from TypedLane::raw() at the dispatch boundary.
  TypedLane<DensityValue> mutable_density_row(RowIndex iy) {
    auto r = mutable_row(iy.value());
    return TypedLane<DensityValue>(r.data(), r.size());
  }

  double MinValue() const;
  double MaxValue() const;
  double Sum() const;

  /// Transposed copy (the reference RAO's column sweep is tested against).
  DensityMap Transposed() const;

  struct Comparison {
    double max_abs_diff = 0.0;
    double max_rel_diff = 0.0;  // relative to the larger |value|, zero-safe
    int64_t mismatched_pixels = 0;  // pixels with abs diff > abs_tolerance
  };
  /// Element-wise comparison; shape mismatch is an error.
  Result<Comparison> CompareTo(const DensityMap& other,
                               double abs_tolerance = 0.0) const;

  std::string ToString() const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<double> values_;
};

}  // namespace slam
