#include "util/validate.h"

#include <limits>

#include "util/string_util.h"

namespace slam {

Status CheckFinite(double value, std::string_view what) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        StringPrintf("%.*s is non-finite (%g)",
                     static_cast<int>(what.size()), what.data(), value));
  }
  return Status::OK();
}

Status CheckPositiveNormal(double value, std::string_view what) {
  if (!std::isfinite(value) || !(value > 0.0)) {
    return Status::InvalidArgument(
        StringPrintf("%.*s must be positive and finite, got %g",
                     static_cast<int>(what.size()), what.data(), value));
  }
  if (!std::isnormal(value)) {
    return Status::InvalidArgument(StringPrintf(
        "%.*s is subnormal (%g): its reciprocal overflows; the smallest "
        "accepted magnitude is %g",
        static_cast<int>(what.size()), what.data(), value,
        std::numeric_limits<double>::min()));
  }
  return Status::OK();
}

Status CheckCoordinate(double value, std::string_view what) {
  if (CoordinateInRange(value)) return Status::OK();
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        StringPrintf("%.*s is non-finite (%g)",
                     static_cast<int>(what.size()), what.data(), value));
  }
  return Status::InvalidArgument(StringPrintf(
      "%.*s magnitude %g exceeds the %g cap (fourth-power aggregate "
      "moments overflow beyond it)",
      static_cast<int>(what.size()), what.data(), value,
      InputLimits::kMaxCoordinateMagnitude));
}

Status CheckCoordinatePair(double x, double y, std::string_view what) {
  SLAM_RETURN_NOT_OK(CheckCoordinate(x, what));
  return CheckCoordinate(y, what);
}

Status CheckGridDims(int64_t width, int64_t height) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument(
        StringPrintf("grid dimensions must be positive, got %lldx%lld",
                     static_cast<long long>(width),
                     static_cast<long long>(height)));
  }
  if (width > InputLimits::kMaxGridDim || height > InputLimits::kMaxGridDim) {
    return Status::InvalidArgument(StringPrintf(
        "grid dimension %lldx%lld exceeds the per-axis cap of %d",
        static_cast<long long>(width), static_cast<long long>(height),
        InputLimits::kMaxGridDim));
  }
  // Both factors are <= 2^20, so the product fits in int64 exactly.
  if (width * height > InputLimits::kMaxGridCells) {
    return Status::InvalidArgument(StringPrintf(
        "grid of %lldx%lld = %lld cells exceeds the %lld-cell cap",
        static_cast<long long>(width), static_cast<long long>(height),
        static_cast<long long>(width * height),
        static_cast<long long>(InputLimits::kMaxGridCells)));
  }
  return Status::OK();
}

Status CheckBandwidth(double bandwidth) {
  SLAM_RETURN_NOT_OK(CheckPositiveNormal(bandwidth, "bandwidth"));
  if (bandwidth < InputLimits::kMinBandwidth ||
      bandwidth > InputLimits::kMaxBandwidth) {
    return Status::InvalidArgument(StringPrintf(
        "bandwidth %g outside the accepted range [%g, %g]", bandwidth,
        InputLimits::kMinBandwidth, InputLimits::kMaxBandwidth));
  }
  return Status::OK();
}

Status CheckRegion(double min_x, double min_y, double max_x, double max_y) {
  SLAM_RETURN_NOT_OK(CheckCoordinate(min_x, "region min x"));
  SLAM_RETURN_NOT_OK(CheckCoordinate(min_y, "region min y"));
  SLAM_RETURN_NOT_OK(CheckCoordinate(max_x, "region max x"));
  SLAM_RETURN_NOT_OK(CheckCoordinate(max_y, "region max y"));
  if (!(min_x < max_x) || !(min_y < max_y)) {
    return Status::InvalidArgument(StringPrintf(
        "region [%g, %g] x [%g, %g] is empty or inverted", min_x, max_x,
        min_y, max_y));
  }
  return Status::OK();
}

}  // namespace slam
