#include "core/sweep_state.h"

#include <gtest/gtest.h>

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

/// Folds `values` into one (sum, comp) pair with NeumaierAdd and into
/// another with TwoSumAdd, from the same start, and requires both pairs'
/// bit patterns to agree after every add.
void ExpectTwoSumIsNeumaier(double sum, double comp,
                            const std::vector<double>& values,
                            const std::string& where) {
  double neumaier_sum = sum;
  double neumaier_comp = comp;
  double two_sum = sum;
  double two_comp = comp;
  for (size_t i = 0; i < values.size(); ++i) {
    NeumaierAdd(neumaier_sum, neumaier_comp, values[i]);
    TwoSumAdd(two_sum, two_comp, values[i]);
    ASSERT_EQ(std::bit_cast<uint64_t>(two_sum),
              std::bit_cast<uint64_t>(neumaier_sum))
        << where << " add " << i << ": sum " << two_sum << " vs "
        << neumaier_sum;
    ASSERT_EQ(std::bit_cast<uint64_t>(two_comp),
              std::bit_cast<uint64_t>(neumaier_comp))
        << where << " add " << i << ": comp " << two_comp << " vs "
        << neumaier_comp;
  }
}

TEST(SweepStateTest, TwoSumIsNeumaierAddBitForBit) {
  // The scalar reference's bucket sums and the AVX2 backend take Knuth's
  // branchless two-sum where CompensatedRangeAggregates takes the branched
  // NeumaierAdd; the engine's rasters are the same bits only if the two
  // agree on every add, sum and compensation term alike.
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  // Single adds from every start in the cross product: mixed signs with
  // |value| below, equal to and above |sum|, exact cancellations, both
  // zeros, subnormals and magnitudes out to 1e300.
  const std::vector<double> magnitudes = {
      0.0,     kDenorm, 3 * kDenorm, kMin / 2, kMin,   1e-300, 1e-17, 0.1,
      1.0 / 3, 0.5,     1.0,         1.0 + 0x1p-52,    3.0,    1e17,  1e300};
  std::vector<double> values;
  for (const double m : magnitudes) {
    values.push_back(m);
    values.push_back(-m);  // -0.0 for m = 0
  }
  for (const double sum : values) {
    for (const double comp : values) {
      for (const double value : values) {
        ExpectTwoSumIsNeumaier(sum, comp, {value},
                               "start (" + std::to_string(sum) + ", " +
                                   std::to_string(comp) + ") add " +
                                   std::to_string(value));
      }
    }
  }
  // Exact cancellations and signed zeros in sequence.
  ExpectTwoSumIsNeumaier(0.0, 0.0, {1.0, -1.0, 0.0, -0.0, 0.1, -0.1, -0.0},
                         "cancellations");
  ExpectTwoSumIsNeumaier(-0.0, -0.0, {-0.0, -0.0, 0.0, -0.0}, "zeros");
  ExpectTwoSumIsNeumaier(0.0, 0.0,
                         {kDenorm, -kDenorm, kMin, -kDenorm, kMin / 4, -kMin},
                         "subnormals");
  // Long mixed-sign sequences: magnitudes spread over 10^±300 (never near
  // overflow), and ones of one scale, the shape of a pixel bucket's terms.
  Rng rng(233);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> sequence;
    const bool spread = trial % 2 == 0;
    for (int i = 0; i < 500; ++i) {
      const double mantissa = rng.Uniform(-1.0, 1.0);
      const int exponent =
          spread ? static_cast<int>(rng.NextBelow(1993)) - 996 : 0;
      sequence.push_back(std::ldexp(mantissa, exponent));
    }
    ExpectTwoSumIsNeumaier(0.0, 0.0, sequence,
                           "sequence " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace slam
