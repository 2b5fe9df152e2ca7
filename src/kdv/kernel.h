// Kernel functions (paper Table 2) and their aggregate decompositions
// (paper Eq. 5 and Section 3.7 / Table 4).
//
// The bandwidth-limited polynomial kernels — uniform, Epanechnikov,
// quartic — admit an exact decomposition of the density
//   F_P(q) = sum_{p in R(q)} w * K(q, p)
// into a closed form over a fixed set of aggregates of R(q):
//   |R|           (all kernels)
//   A  = Σ p      (Epanechnikov, quartic)
//   S  = Σ ||p||² (Epanechnikov, quartic)
//   C  = Σ ||p||² p,  Q = Σ ||p||⁴,  M = Σ p pᵀ   (quartic only)
// That decomposition is what lets the sweep line maintain densities in O(1)
// per pixel. The Gaussian kernel has no such finite decomposition, so SLAM
// cannot support it (paper Section 3.7) — kept in the enum so the engine
// can reject it with a useful error.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "geom/point.h"
#include "util/result.h"
#include "util/units.h"

namespace slam {

enum class KernelType : int {
  kUniform = 0,
  kEpanechnikov = 1,
  kQuartic = 2,
  kGaussian = 3,  // NOT supported by SLAM; see header comment.
};

std::string_view KernelTypeName(KernelType kernel);
Result<KernelType> KernelTypeFromName(std::string_view name);

/// True for the bandwidth-limited kernels SLAM's decomposition covers.
bool KernelSupportedBySlam(KernelType kernel);

/// InvalidArgument unless KernelSupportedBySlam(kernel): the one refusal
/// every SLAM entry point (the engine and a direct ComputeSlamSort /
/// ComputeSlamBucket call) returns for an unsupported kernel.
Status CheckKernelSupportedBySlam(KernelType kernel);

/// Guarded per-evaluation constants shared by every kernel path — the
/// scalar closed forms below, the SIMD row sweeps (src/simd/), and direct
/// evaluation. The kernel polynomials divide by the bandwidth and its
/// square; a zero, subnormal, or NaN bandwidth (reachable through the
/// oracle and fuzz harnesses, which bypass task validation) would turn
/// those divisions into Inf/NaN. Both divisors are clamped to the smallest
/// positive normal double, which leaves every validated bandwidth
/// (>= 1e-9, util/validate.h) bit-for-bit unchanged.
struct KernelEvalProfile {
  double bandwidth = 1.0;  // clamped to the positive-normal range
  double b2 = 1.0;         // clamped bandwidth²
};
KernelEvalProfile MakeKernelEvalProfile(double bandwidth);

/// The bandwidth-scaled squared distance u² = d²/b² — the dimensionless
/// quantity every bounded-kernel profile is a polynomial in. Typed
/// (util/units.h) so a raw, unscaled distance cannot reach a profile
/// polynomial: the scaling step is the only constructor call site.
inline BandwidthScaled ScaleSquaredDistance(double squared_distance,
                                            const KernelEvalProfile& prof) {
  return BandwidthScaled(squared_distance / prof.b2);
}

/// Profile polynomials over bandwidth-scaled inputs (paper Table 2,
/// support checks excluded — callers gate on d² <= b² against the RAW
/// squared distance, never the scaled one, so boundary membership is
/// bit-identical to direct evaluation).
inline double EpanechnikovProfile(BandwidthScaled u2) {
  return 1.0 - u2.value();
}
inline double QuarticProfile(BandwidthScaled u2) {
  const double t = 1.0 - u2.value();
  return t * t;
}

/// Direct evaluation of K(q, p) given squared distance. This is the ground
/// truth every optimized path is tested against.
/// For distances > bandwidth the bounded kernels return 0.
double EvaluateKernel(KernelType kernel, double squared_distance,
                      double bandwidth);

/// The aggregates of a range set R(q) (paper Table 4). All fields are
/// maintained unconditionally — the marginal cost is a few adds per point —
/// so one accumulator type serves every kernel.
struct RangeAggregates {
  double count = 0.0;   // |R|
  Point sum{};          // A   = Σ p
  double sum_sq = 0.0;  // S   = Σ ||p||²
  Point sum_sq_p{};     // C   = Σ ||p||² p
  double sum_quad = 0.0;  // Q = Σ ||p||⁴
  double m_xx = 0.0;      // M = Σ p pᵀ (symmetric 2x2: xx, xy, yy)
  double m_xy = 0.0;
  double m_yy = 0.0;

  void Add(const Point& p) {
    const double s = p.SquaredNorm();
    count += 1.0;
    sum += p;
    sum_sq += s;
    sum_sq_p += p * s;
    sum_quad += s * s;
    m_xx += p.x * p.x;
    m_xy += p.x * p.y;
    m_yy += p.y * p.y;
  }

  void Merge(const RangeAggregates& o) {
    count += o.count;
    sum += o.sum;
    sum_sq += o.sum_sq;
    sum_sq_p += o.sum_sq_p;
    sum_quad += o.sum_quad;
    m_xx += o.m_xx;
    m_xy += o.m_xy;
    m_yy += o.m_yy;
  }

  /// Component-wise difference; used for L_ell - U_ell (paper Lemma 3/5).
  RangeAggregates Minus(const RangeAggregates& o) const {
    RangeAggregates r = *this;
    r.count -= o.count;
    r.sum -= o.sum;
    r.sum_sq -= o.sum_sq;
    r.sum_sq_p -= o.sum_sq_p;
    r.sum_quad -= o.sum_quad;
    r.m_xx -= o.m_xx;
    r.m_xy -= o.m_xy;
    r.m_yy -= o.m_yy;
    return r;
  }
};

/// Aggregates of the translated set {u + t : u in R} from the aggregates
/// of R — the binomial moment-shift identity, exact as polynomials. The
/// spatial indexes store each node's aggregates anchored at the node
/// center and shift them into the query-centered frame at merge time, so
/// every magnitude the density recombination sees is O(bandwidth)-scaled
/// no matter where the data sits globally (the tree analog of the sweep's
/// row-local frame; well conditioned because |t| <= radius + node extent).
RangeAggregates TranslatedAggregates(const RangeAggregates& agg,
                                     const Point& t);

/// One Neumaier (improved Kahan–Babuška) step: folds `value` into the
/// running `sum`, pushing the rounding error of the addition into `comp`.
/// The true total is sum + comp at any time. Unlike plain Kahan, this
/// stays correct when |value| > |sum| (common when the sweep's aggregates
/// swing through near-cancellation).
inline void NeumaierAdd(double& sum, double& comp, double value) {
  const double t = sum + value;
  if (std::abs(sum) >= std::abs(value)) {
    comp += (sum - t) + value;
  } else {
    comp += (value - t) + sum;
  }
  sum = t;
}

/// RangeAggregates with one Neumaier compensation term per scalar channel.
/// The sweep's L and U accumulators see millions of endpoint passes on
/// production rows; uncompensated, their drift is O(n·eps) of the largest
/// intermediate, which the subtraction L − U then exposes. Compensation
/// caps the drift at O(eps) of the true value for ~2x the adds — enabled
/// by default via ComputeOptions::compensated_aggregates.
struct CompensatedRangeAggregates {
  RangeAggregates sums;
  RangeAggregates comps;  // same channels, holding the compensation terms

  void Add(const Point& p) {
    const double s = p.SquaredNorm();
    sums.count += 1.0;  // counts are integers: exact until 2^53, no comp
    NeumaierAdd(sums.sum.x, comps.sum.x, p.x);
    NeumaierAdd(sums.sum.y, comps.sum.y, p.y);
    NeumaierAdd(sums.sum_sq, comps.sum_sq, s);
    NeumaierAdd(sums.sum_sq_p.x, comps.sum_sq_p.x, p.x * s);
    NeumaierAdd(sums.sum_sq_p.y, comps.sum_sq_p.y, p.y * s);
    NeumaierAdd(sums.sum_quad, comps.sum_quad, s * s);
    NeumaierAdd(sums.m_xx, comps.m_xx, p.x * p.x);
    NeumaierAdd(sums.m_xy, comps.m_xy, p.x * p.y);
    NeumaierAdd(sums.m_yy, comps.m_yy, p.y * p.y);
  }

  void Merge(const CompensatedRangeAggregates& o) {
    sums.count += o.sums.count;
    NeumaierAdd(sums.sum.x, comps.sum.x, o.sums.sum.x);
    NeumaierAdd(sums.sum.y, comps.sum.y, o.sums.sum.y);
    NeumaierAdd(sums.sum_sq, comps.sum_sq, o.sums.sum_sq);
    NeumaierAdd(sums.sum_sq_p.x, comps.sum_sq_p.x, o.sums.sum_sq_p.x);
    NeumaierAdd(sums.sum_sq_p.y, comps.sum_sq_p.y, o.sums.sum_sq_p.y);
    NeumaierAdd(sums.sum_quad, comps.sum_quad, o.sums.sum_quad);
    NeumaierAdd(sums.m_xx, comps.m_xx, o.sums.m_xx);
    NeumaierAdd(sums.m_xy, comps.m_xy, o.sums.m_xy);
    NeumaierAdd(sums.m_yy, comps.m_yy, o.sums.m_yy);
    comps.Merge(o.comps);
  }

  /// L − U with the compensation folded in: the primary difference first
  /// (benefiting from Sterbenz cancellation when L ≈ U), then the small
  /// compensation difference as a correction.
  RangeAggregates Minus(const CompensatedRangeAggregates& o) const {
    RangeAggregates r = sums.Minus(o.sums);
    const RangeAggregates c = comps.Minus(o.comps);
    r.sum += c.sum;
    r.sum_sq += c.sum_sq;
    r.sum_sq_p += c.sum_sq_p;
    r.sum_quad += c.sum_quad;
    r.m_xx += c.m_xx;
    r.m_xy += c.m_xy;
    r.m_yy += c.m_yy;
    return r;
  }
};

/// Exact density at pixel q from the aggregates of R(q) (paper Eq. 5 for
/// Epanechnikov; Section 3.7 expansions for uniform and quartic).
/// `weight` is the paper's normalization constant w. Gaussian is a
/// programming error here (checked).
double DensityFromAggregates(KernelType kernel, const Point& q,
                             const RangeAggregates& agg, double bandwidth,
                             double weight);

/// Number of scalar aggregate values the kernel's decomposition needs
/// (1, 4, or 9). Used by the space model and the ablation bench.
int AggregateArity(KernelType kernel);

}  // namespace slam
