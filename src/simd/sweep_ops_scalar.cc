// The scalar backend: the portable reference every vector backend is
// measured against (sweep_ops.h). Also where GetSimdOps lives, so the
// dispatch logic is compiled exactly once.
#include "simd/dispatch.h"
#include "simd/sweep_ops.h"
#include "simd/sweep_ops_inline.h"

namespace slam {

namespace {

size_t EnvelopeFilter(std::span<const Point> points, double k,
                      double bandwidth, double* ex, double* ey) {
  return simd_internal::EnvelopeFilterScalar(points, k, bandwidth, ex, ey);
}

void BoundIntervals(const double* ex, const double* ey, size_t n, double k,
                    double bandwidth, double* lb, double* ub) {
  simd_internal::BoundIntervalsScalarRange(ex, ey, 0, n, k, bandwidth, lb,
                                           ub);
}

void BucketIndices(const double* lb, const double* ub, size_t n,
                   const GridAxis& xs, int32_t* lower_bucket,
                   int32_t* upper_bucket) {
  simd_internal::BucketIndicesScalarRange(lb, ub, 0, n, xs, lower_bucket,
                                          upper_bucket);
}

void HistogramScatter(const HistogramScatterArgs& args) {
  simd_internal::HistogramScatterScalar(args);
}

constexpr SimdOps kScalarOps = {
    SimdLevel::kScalar,
    &EnvelopeFilter,
    &BoundIntervals,
    &BucketIndices,
    &HistogramScatter,
    &simd_internal::RowSweepScalar,
    &simd_internal::BucketSweepScalar,
};

}  // namespace

const SimdOps* GetScalarOps() { return &kScalarOps; }

Result<const SimdOps*> GetSimdOps(SimdLevel level) {
  SLAM_ASSIGN_OR_RETURN(const SimdLevel resolved, ResolveSimdLevel(level));
  switch (resolved) {
    case SimdLevel::kScalar:
      return GetScalarOps();
    case SimdLevel::kAvx2:
      return GetAvx2Ops();
    case SimdLevel::kNeon:
      return GetNeonOps();
    case SimdLevel::kAuto:
      break;  // ResolveSimdLevel never returns kAuto
  }
  return Status::Internal("unresolved SIMD level");
}

}  // namespace slam
