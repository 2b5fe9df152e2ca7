#include "core/sweep_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace slam {
namespace {

TEST(SweepStateTest, StartsEmpty) {
  const SweepState state;
  EXPECT_EQ(state.lower.count, 0.0);
  EXPECT_EQ(state.upper.count, 0.0);
  EXPECT_DOUBLE_EQ(
      state.Density(KernelType::kEpanechnikov, {0, 0}, 1.0, 1.0), 0.0);
}

TEST(SweepStateTest, LowerMinusUpperIsActiveSet) {
  SweepState state;
  // Three intervals opened, one closed: active set = {p1, p3}.
  const Point p1{1, 0}, p2{2, 0}, p3{3, 0};
  state.PassLowerBound(p1);
  state.PassLowerBound(p2);
  state.PassLowerBound(p3);
  state.PassUpperBound(p2);
  const RangeAggregates active = state.lower.Minus(state.upper);
  EXPECT_DOUBLE_EQ(active.count, 2.0);
  EXPECT_DOUBLE_EQ(active.sum.x, 4.0);
  EXPECT_DOUBLE_EQ(active.sum_sq, 10.0);  // 1 + 9
}

TEST(SweepStateTest, DensityMatchesDirectOverActiveSet) {
  Rng rng(223);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    SweepState state;
    const double b = 4.0;
    const Point q{0.0, 0.0};
    double direct = 0.0;
    for (int i = 0; i < 40; ++i) {
      // Points within b of q, all "opened".
      Point p;
      do {
        p = {rng.Uniform(-b, b), rng.Uniform(-b, b)};
      } while (p.SquaredNorm() > b * b);
      state.PassLowerBound(p);
      if (i % 3 == 0) {
        // Some also "closed": they leave the active set.
        state.PassUpperBound(p);
      } else {
        direct += EvaluateKernel(kernel, SquaredDistance(q, p), b);
      }
    }
    EXPECT_NEAR(state.Density(kernel, q, b, 2.0), 2.0 * direct,
                1e-9 * std::max(1.0, direct));
  }
}

TEST(SweepStateTest, ResetClears) {
  SweepState state;
  state.PassLowerBound({1, 1});
  state.PassUpperBound({1, 1});
  state.Reset();
  EXPECT_EQ(state.lower.count, 0.0);
  EXPECT_EQ(state.upper.count, 0.0);
}

TEST(SweepStateTest, UpperSubsetOfLowerKeepsDensityNonNegative) {
  // Whenever U ⊆ L (the sweep invariant), densities are non-negative.
  Rng rng(227);
  SweepState state;
  std::vector<Point> opened;
  for (int i = 0; i < 100; ++i) {
    const Point p{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    state.PassLowerBound(p);
    opened.push_back(p);
    if (i % 2 == 1) {
      state.PassUpperBound(opened[i / 2]);
    }
    EXPECT_GE(
        state.Density(KernelType::kUniform, {0, 0}, 3.0, 1.0), -1e-12);
  }
}

// The bucket pass's error-free split (SplitScale, SplitExact): every hi
// part is a multiple of 2^-53 σ, and no sum of at most 2n of them reaches
// σ, so the bucket sums and the running sum of the hi parts are exact in
// any order; only the lo sums round.

/// The unit of every hi part at scale σ.
double HiUnit(double sigma) { return std::ldexp(sigma, -53); }

/// Values a line's channel takes, each at most `bound` in magnitude: ±M,
/// M less one rounding, both zeros, subnormals, exact cancellations of the
/// value before, magnitudes spread far below M, and uniform draws.
std::vector<double> MixedValues(size_t count, double bound, Rng* rng) {
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values;
  for (size_t i = 0; i < count; ++i) {
    const double sign = rng->NextBelow(2) == 0 ? 1.0 : -1.0;
    double v = 0.0;
    switch (i % 8) {
      case 0:
        v = sign * bound;
        break;
      case 1:
        v = sign * bound * (1.0 - 0x1p-53);
        break;
      case 2:
        v = sign * 0.0;
        break;
      case 3:
        v = sign * kDenorm * static_cast<double>(1 + rng->NextBelow(7));
        break;
      case 4:
        v = values.empty() ? 0.0 : -values.back();
        break;
      case 5:
        v = std::ldexp(rng->Uniform(-bound, bound),
                       -static_cast<int>(rng->NextBelow(80)));
        break;
      default:
        v = rng->Uniform(-bound, bound);
        break;
    }
    values.push_back(v);
  }
  return values;
}

TEST(ExactSplitTest, ScaleIsTheSmallestPowerOfTwoAtLeastFourNTimesTheBound) {
  for (const size_t n : {size_t{1}, size_t{3}, size_t{997}, size_t{10000},
                         size_t{1} << 31}) {
    for (const double bound : {1.0, 0.75, 3e-7, 690.6, 1e12, 1e48}) {
      const double sigma = SplitScale(n, bound);
      const double target = 4.0 * static_cast<double>(n) * bound;
      int exponent = 0;
      EXPECT_EQ(std::frexp(sigma, &exponent), 0.5) << sigma;
      EXPECT_GE(sigma, target) << "n=" << n << " bound=" << bound;
      EXPECT_LT(sigma / 2, target) << "n=" << n << " bound=" << bound;
    }
  }
  // A power of two times 4n is its own scale; nothing to split scales 1.
  EXPECT_EQ(SplitScale(4, 0.5), 8.0);
  EXPECT_EQ(SplitScale(0, 5.0), 1.0);
  EXPECT_EQ(SplitScale(9, 0.0), 1.0);
}

TEST(ExactSplitTest, PartsAreExactAndHiIsOnTheScalesGrid) {
  Rng rng(241);
  for (const double bound : {1.0, 3e-7, 690.6, 1e12, 1e48}) {
    for (const size_t n : {size_t{1}, size_t{997}, size_t{10000}}) {
      const double sigma = SplitScale(n, bound);
      for (const double v : MixedValues(4000, bound, &rng)) {
        double hi = 0.0;
        double lo = 0.0;
        SplitExact(sigma, v, hi, lo);
        SCOPED_TRACE("bound=" + std::to_string(bound) +
                     " n=" + std::to_string(n) + " v=" + std::to_string(v));
        if (v == 0.0) {
          // σ − σ is +0, so −0 splits into +0 and −0, whose sum is +0.
          EXPECT_EQ(hi, 0.0);
          EXPECT_EQ(lo, 0.0);
          EXPECT_EQ(std::signbit(lo), std::signbit(v));
        } else {
          EXPECT_EQ(std::bit_cast<uint64_t>(hi + lo),
                    std::bit_cast<uint64_t>(v));
        }
        EXPECT_EQ(std::fmod(hi, HiUnit(sigma)), 0.0) << hi;
        EXPECT_LE(std::abs(lo), HiUnit(sigma));
        EXPECT_LE(std::abs(hi), std::abs(v) + HiUnit(sigma));
      }
    }
  }
}

TEST(ExactSplitTest, HiSumsAreExactInAnyOrderAndOnlyLoSumsRound) {
  Rng rng(977);
  for (const double bound : {1.0, 690.6, 1e12, 1e48}) {
    for (const size_t n : {size_t{1}, size_t{7}, size_t{997}, size_t{10000}}) {
      SCOPED_TRACE("bound=" + std::to_string(bound) +
                   " n=" + std::to_string(n));
      // Both endpoints of n points: 2n terms, as one line's buckets and
      // running sum see them.
      const std::vector<double> values = MixedValues(2 * n, bound, &rng);
      const double sigma = SplitScale(n, bound);
      std::vector<double> his;
      std::vector<double> los;
      for (const double v : values) {
        double hi = 0.0;
        double lo = 0.0;
        SplitExact(sigma, v, hi, lo);
        his.push_back(hi);
        los.push_back(lo);
      }
      // The exact sum of the hi parts, and a near-exact one of the lo parts.
      long double exact_hi = 0.0L;
      long double exact_lo = 0.0L;
      long double lo_magnitude = 0.0L;
      for (size_t i = 0; i < values.size(); ++i) {
        exact_hi += his[i];
        exact_lo += los[i];
        lo_magnitude += std::abs(los[i]);
      }
      std::vector<size_t> order(values.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      uint64_t first_bits = 0;
      for (int trial = 0; trial < 6; ++trial) {
        if (trial == 1) std::reverse(order.begin(), order.end());
        if (trial > 1) rng.Shuffle(&order);
        double hi_sum = 0.0;
        double lo_sum = 0.0;
        for (const size_t i : order) {
          hi_sum += his[i];
          lo_sum += los[i];
        }
        ASSERT_EQ(static_cast<long double>(hi_sum), exact_hi)
            << "trial " << trial;
        if (trial == 0) first_bits = std::bit_cast<uint64_t>(hi_sum);
        ASSERT_EQ(std::bit_cast<uint64_t>(hi_sum), first_bits)
            << "trial " << trial;
        // The two levels together: the exact sum, off by one rounding of
        // the result and the lo sum's own rounding (at most 2n − 1 adds of
        // terms below 2^-53 σ).
        const long double exact = exact_hi + exact_lo;
        const double total = hi_sum + lo_sum;
        const long double unit = 0x1p-53L;
        EXPECT_LE(std::abs(static_cast<long double>(total) - exact),
                  unit * std::abs(exact) +
                      static_cast<long double>(2 * n) * unit * lo_magnitude)
            << "trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace slam
