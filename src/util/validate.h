// Shared validation layer for every untrusted-input surface: CSV datasets,
// SLDM density-map files, CLI flags, and serving request parameters.
//
// Once ServingCore sits behind an HTTP endpoint, every byte it touches is
// attacker-controlled. The failure class this layer closes is *silent*
// arithmetic corruption: a NaN coordinate poisons every aggregate it meets,
// an Inf bandwidth turns the closed-form sweep polynomial into NaN - NaN, a
// subnormal bandwidth survives a `> 0` test but overflows its reciprocal,
// and a 2^31-scale grid dimension overflows the width*height product into
// a small positive allocation. Each surface used to re-derive its own
// subset of these checks; they now all call the helpers below, so the CLI,
// the loaders, and the serving path reject the same hostile input with the
// same typed Status.
//
// Contract: helpers return InvalidArgument with the offending field named,
// never crash, and never mutate. Canonicalization (the only lossy step,
// -0.0 / subnormal flush) is a separate explicit call.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/status.h"

namespace slam {

/// Central limits for untrusted inputs. One place, so the fuzzers can
/// assert "decoded implies within limits" and every surface agrees on
/// what a plausible input looks like.
struct InputLimits {
  /// Per-axis raster/grid dimension cap (pixels). Matches the SLDM header
  /// cap; far above any tile or screen but small enough that dim*dim
  /// cannot overflow int64.
  static constexpr int kMaxGridDim = 1 << 20;
  /// Total pixel cap: 2^26 doubles is a 512 MiB raster. Guards the
  /// width*height product, which per-axis caps alone leave at 2^40 cells
  /// (an 8 TiB allocation from a 16-byte hostile file header).
  static constexpr int64_t kMaxGridCells = int64_t{1} << 26;
  /// Coordinate magnitude cap. Finite-but-huge coordinates are the subtle
  /// hostile case: 1e300 passes std::isfinite but its fourth-power moment
  /// (the sweep aggregates carry x^4 terms) overflows to Inf and the
  /// closed-form evaluation returns NaN with no error. 1e12 is beyond any
  /// projected CRS (EPSG:3857 spans ~4e7 m) while keeping fourth powers
  /// at 1e48, comfortably inside double range even summed over billions
  /// of points.
  static constexpr double kMaxCoordinateMagnitude = 1e12;
  /// Bandwidth range for the serving path. The engine divides by b^2 and
  /// b^4 (quartic kernel), so b must keep both the powers and their
  /// reciprocals normal.
  static constexpr double kMinBandwidth = 1e-9;
  static constexpr double kMaxBandwidth = 1e12;
  /// CSV hardening caps (see util/csv.h): a single field, a single
  /// record, and the field count per record. Municipal exports sit orders
  /// of magnitude below these; anything above is a resource attack, not
  /// data.
  static constexpr size_t kMaxCsvFieldBytes = 64 * 1024;
  static constexpr size_t kMaxCsvRecordBytes = 1024 * 1024;
  static constexpr size_t kMaxCsvFieldsPerRecord = 1024;
  /// Per-request deadline cap (seconds). A deadline is untrusted input
  /// too: an enormous value pins a slot for the request's whole life.
  static constexpr double kMaxDeadlineSeconds = 3600.0;
};

/// NaN/Inf rejected; `what` names the field in the error message.
[[nodiscard]] Status CheckFinite(double value, std::string_view what);

/// Strictly positive, finite, and not subnormal. The subnormal clause is
/// the point: a denormal like 1e-310 passes `> 0` yet 1/x overflows to
/// Inf, which is exactly how a hostile bandwidth corrupts the sweep.
[[nodiscard]] Status CheckPositiveNormal(double value, std::string_view what);

/// The coordinate rule: |v| <= InputLimits::kMaxCoordinateMagnitude, which
/// is false for NaN and ±Inf. One comparison and no Status, so per-point
/// loops (ValidateTask, CopyFinitePoints) can call it on every point.
[[nodiscard]] inline bool CoordinateInRange(double value) {
  return std::abs(value) <= InputLimits::kMaxCoordinateMagnitude;
}

/// A coordinate that CoordinateInRange accepts; the error says whether it
/// was non-finite or over the cap. Subnormals are fine here (they are just
/// tiny); use CanonicalizeCoordinate to flush them to a single
/// representation.
[[nodiscard]] Status CheckCoordinate(double value, std::string_view what);
[[nodiscard]] Status CheckCoordinatePair(double x, double y, std::string_view what);

/// Raster/grid dimensions: positive, per-axis <= kMaxGridDim, and
/// width*height <= kMaxGridCells. Takes int64 so callers can pass raw
/// header fields before any narrowing.
[[nodiscard]] Status CheckGridDims(int64_t width, int64_t height);

/// Bandwidth on the serving path: CheckPositiveNormal plus the
/// [kMinBandwidth, kMaxBandwidth] range.
[[nodiscard]] Status CheckBandwidth(double bandwidth);

/// A rectangular region: all four corners valid coordinates and
/// min < max on both axes (degenerate or inverted regions rejected).
[[nodiscard]] Status CheckRegion(double min_x, double min_y, double max_x, double max_y);

/// Canonical form of an untrusted coordinate: -0.0 becomes +0.0 and
/// subnormals flush to 0.0, so "zero-ish" has one representation and
/// dedup/bucketing downstream cannot be steered by bit games. Finite
/// normal values pass through unchanged.
[[nodiscard]] inline double CanonicalizeCoordinate(double value) {
  if (value == 0.0 || (std::isfinite(value) && !std::isnormal(value))) {
    return 0.0;
  }
  return value;
}

}  // namespace slam
