#include "kdv/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"
#include "util/string_util.h"

namespace slam {

std::string_view KernelTypeName(KernelType kernel) {
  switch (kernel) {
    case KernelType::kUniform:
      return "uniform";
    case KernelType::kEpanechnikov:
      return "epanechnikov";
    case KernelType::kQuartic:
      return "quartic";
    case KernelType::kGaussian:
      return "gaussian";
  }
  return "?";
}

Result<KernelType> KernelTypeFromName(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "uniform") return KernelType::kUniform;
  if (lower == "epanechnikov" || lower == "epan") {
    return KernelType::kEpanechnikov;
  }
  if (lower == "quartic" || lower == "biweight") return KernelType::kQuartic;
  if (lower == "gaussian") return KernelType::kGaussian;
  return Status::InvalidArgument("unknown kernel '" + std::string(name) + "'");
}

bool KernelSupportedBySlam(KernelType kernel) {
  switch (kernel) {
    case KernelType::kUniform:
    case KernelType::kEpanechnikov:
    case KernelType::kQuartic:
      return true;
    case KernelType::kGaussian:
      return false;
  }
  return false;
}

Status CheckKernelSupportedBySlam(KernelType kernel) {
  if (KernelSupportedBySlam(kernel)) return Status::OK();
  return Status::InvalidArgument(
      "SLAM cannot support the " + std::string(KernelTypeName(kernel)) +
      " kernel: its density has no finite aggregate decomposition (paper "
      "Section 3.7)");
}

KernelEvalProfile MakeKernelEvalProfile(double bandwidth) {
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  KernelEvalProfile prof;
  // `!(x >= min)` (rather than `x < min`) also catches NaN.
  prof.bandwidth = !(bandwidth >= kMinNormal) ? kMinNormal : bandwidth;
  const double b2 = prof.bandwidth * prof.bandwidth;
  // The square underflows for bandwidth < ~1.5e-154 even when the
  // bandwidth itself is normal.
  prof.b2 = !(b2 >= kMinNormal) ? kMinNormal : b2;
  return prof;
}

double EvaluateKernel(KernelType kernel, double squared_distance,
                      double bandwidth) {
  const KernelEvalProfile prof = MakeKernelEvalProfile(bandwidth);
  const double b2 = prof.b2;
  switch (kernel) {
    case KernelType::kUniform:
      return squared_distance <= b2 ? 1.0 / prof.bandwidth : 0.0;
    case KernelType::kEpanechnikov:
      return squared_distance <= b2
                 ? EpanechnikovProfile(ScaleSquaredDistance(squared_distance,
                                                            prof))
                 : 0.0;
    case KernelType::kQuartic:
      return squared_distance <= b2
                 ? QuarticProfile(ScaleSquaredDistance(squared_distance, prof))
                 : 0.0;
    case KernelType::kGaussian:
      return std::exp(-squared_distance / (2.0 * b2));
  }
  return 0.0;
}

RangeAggregates TranslatedAggregates(const RangeAggregates& agg,
                                     const Point& t) {
  const double n = agg.count;
  const double t2 = t.x * t.x + t.y * t.y;
  const double t_dot_sum = t.x * agg.sum.x + t.y * agg.sum.y;
  // M t, with M = Σ u uᵀ.
  const double mt_x = agg.m_xx * t.x + agg.m_xy * t.y;
  const double mt_y = agg.m_xy * t.x + agg.m_yy * t.y;
  RangeAggregates r;
  r.count = n;
  r.sum = {agg.sum.x + n * t.x, agg.sum.y + n * t.y};
  // Σ ||u + t||² = S + 2 t·A + n ||t||²
  r.sum_sq = agg.sum_sq + 2.0 * t_dot_sum + n * t2;
  // Σ ||u + t||² (u + t) = C + S t + 2 M t + 2 (t·A) t + ||t||² A + n ||t||² t
  r.sum_sq_p.x = agg.sum_sq_p.x + agg.sum_sq * t.x + 2.0 * mt_x +
                 2.0 * t_dot_sum * t.x + t2 * agg.sum.x + n * t2 * t.x;
  r.sum_sq_p.y = agg.sum_sq_p.y + agg.sum_sq * t.y + 2.0 * mt_y +
                 2.0 * t_dot_sum * t.y + t2 * agg.sum.y + n * t2 * t.y;
  // Σ ||u + t||⁴ = Q + 4 tᵀM t + 4 t·C + 2 ||t||² S + 4 ||t||² (t·A)
  //               + n ||t||⁴
  r.sum_quad = agg.sum_quad + 4.0 * (t.x * mt_x + t.y * mt_y) +
               4.0 * (t.x * agg.sum_sq_p.x + t.y * agg.sum_sq_p.y) +
               2.0 * t2 * agg.sum_sq + 4.0 * t2 * t_dot_sum + n * t2 * t2;
  r.m_xx = agg.m_xx + 2.0 * t.x * agg.sum.x + n * t.x * t.x;
  r.m_xy = agg.m_xy + t.x * agg.sum.y + t.y * agg.sum.x + n * t.x * t.y;
  r.m_yy = agg.m_yy + 2.0 * t.y * agg.sum.y + n * t.y * t.y;
  return r;
}

double DensityFromAggregates(KernelType kernel, const Point& q,
                             const RangeAggregates& agg, double bandwidth,
                             double weight) {
  SLAM_DCHECK(KernelSupportedBySlam(kernel))
      << "no aggregate decomposition for kernel "
      << KernelTypeName(kernel);
  const KernelEvalProfile prof = MakeKernelEvalProfile(bandwidth);
  const double b2 = prof.b2;
  // The true density is a sum of non-negative kernel values; the
  // subtractive closed forms below can round to tiny negatives (~1e-14 of
  // the aggregate scale), so clamp at zero.
  switch (kernel) {
    case KernelType::kUniform:
      // F = (w / b) |R|
      return weight / prof.bandwidth * agg.count;
    case KernelType::kEpanechnikov: {
      // F = w|R| - (w/b²)(|R| ||q||² - 2 qᵀA + S)     (paper Eq. 5)
      const double u = q.SquaredNorm();
      return std::max(
          0.0, weight * agg.count -
                   weight / b2 *
                       (agg.count * u - 2.0 * q.Dot(agg.sum) + agg.sum_sq));
    }
    case KernelType::kQuartic: {
      // K = (1 - d²/b²)² = 1 - 2d²/b² + d⁴/b⁴ with d² = ||q||² - 2qᵀp + ||p||².
      // Σ d² = |R| u - 2 qᵀA + S                       (u = ||q||²)
      // Σ d⁴ = |R| u² + 4 qᵀM q + Q - 4u qᵀA + 2u S - 4 qᵀC
      const double u = q.SquaredNorm();
      const double sum_d2 =
          agg.count * u - 2.0 * q.Dot(agg.sum) + agg.sum_sq;
      const double qMq = q.x * (agg.m_xx * q.x + agg.m_xy * q.y) +
                         q.y * (agg.m_xy * q.x + agg.m_yy * q.y);
      const double sum_d4 = agg.count * u * u + 4.0 * qMq + agg.sum_quad -
                            4.0 * u * q.Dot(agg.sum) + 2.0 * u * agg.sum_sq -
                            4.0 * q.Dot(agg.sum_sq_p);
      return std::max(
          0.0, weight * (agg.count - 2.0 / b2 * sum_d2 + sum_d4 / (b2 * b2)));
    }
    case KernelType::kGaussian:
      break;
  }
  SLAM_CHECK(false) << "unreachable: kernel "
                    << static_cast<int>(kernel);  // lint:allow(narrowing-cast) NOLINT(slam-narrowing-cast)
  return 0.0;
}

int AggregateArity(KernelType kernel) {
  switch (kernel) {
    case KernelType::kUniform:
      return 1;  // |R|
    case KernelType::kEpanechnikov:
      return 4;  // |R|, A (2), S
    case KernelType::kQuartic:
      return 9;  // + C (2), Q, M (3 distinct entries)
    case KernelType::kGaussian:
      return 0;
  }
  return 0;
}

}  // namespace slam
