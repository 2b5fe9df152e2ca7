#include "simd/dispatch.h"

#include <gtest/gtest.h>

#include "simd/sweep_ops.h"

namespace slam {
namespace {

TEST(SimdDispatchTest, NamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kAuto, SimdLevel::kScalar,
                                SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const auto parsed = SimdLevelFromName(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok()) << SimdLevelName(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(SimdDispatchTest, NameParsingAliasesAndCase) {
  EXPECT_EQ(*SimdLevelFromName("none"), SimdLevel::kScalar);
  EXPECT_EQ(*SimdLevelFromName("AVX2"), SimdLevel::kAvx2);
  EXPECT_EQ(*SimdLevelFromName("Auto"), SimdLevel::kAuto);
  const auto bad = SimdLevelFromName("sse9");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kScalar));
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kAuto));
}

TEST(SimdDispatchTest, DetectReturnsConcreteAvailableLevel) {
  const SimdLevel detected = DetectSimdLevel();
  EXPECT_NE(detected, SimdLevel::kAuto);
  EXPECT_TRUE(SimdLevelAvailable(detected));
}

TEST(SimdDispatchTest, ResolveAutoMatchesDetect) {
  const auto resolved = ResolveSimdLevel(SimdLevel::kAuto);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, DetectSimdLevel());
}

TEST(SimdDispatchTest, ResolveAvailableLevelIsIdentity) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!SimdLevelAvailable(level)) continue;
    const auto resolved = ResolveSimdLevel(level);
    ASSERT_TRUE(resolved.ok()) << SimdLevelName(level);
    EXPECT_EQ(*resolved, level);
  }
}

TEST(SimdDispatchTest, ResolveUnavailableLevelIsInvalidArgument) {
  // AVX2 and NEON are arch-exclusive, so at least one is always
  // unavailable — the pinned-level error path is testable everywhere.
  int unavailable = 0;
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelAvailable(level)) continue;
    ++unavailable;
    const auto resolved = ResolveSimdLevel(level);
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument)
        << SimdLevelName(level);
  }
  EXPECT_GE(unavailable, 1);
}

TEST(SimdOpsTest, TablesAreCompleteForAvailableLevels) {
  for (const SimdLevel level : {SimdLevel::kAuto, SimdLevel::kScalar,
                                SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const auto ops = GetSimdOps(level);
    if (!SimdLevelAvailable(level)) {
      EXPECT_EQ(ops.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(ops.ok()) << SimdLevelName(level);
    EXPECT_NE((*ops)->envelope_filter, nullptr);
    EXPECT_NE((*ops)->bound_intervals, nullptr);
    EXPECT_NE((*ops)->bucket_indices, nullptr);
    EXPECT_NE((*ops)->row_sweep, nullptr);
    EXPECT_NE((*ops)->bucket_sweep, nullptr);
    if (level != SimdLevel::kAuto) {
      EXPECT_EQ((*ops)->level, level);
    }
  }
}

TEST(SimdOpsTest, EnvelopeFilterAcceptsAnEmptySpan) {
  // A direct compute on no points scans an empty span, which may have no
  // array behind it: no backend may form a pointer into it.
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (!SimdLevelAvailable(level)) continue;
    const auto ops = GetSimdOps(level);
    ASSERT_TRUE(ops.ok()) << SimdLevelName(level);
    double ex[4] = {};
    double ey[4] = {};
    EXPECT_EQ((*ops)->envelope_filter({}, 0.0, 1.0, ex, ey), 0u)
        << SimdLevelName(level);
  }
}

TEST(SimdOpsTest, ForeignArchBackendsCompileToNull) {
  // The arch-gated translation units always link; on a foreign
  // architecture the getter is non-null but returns nullptr.
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(GetNeonOps(), nullptr);
#endif
#if defined(__aarch64__)
  EXPECT_EQ(GetAvx2Ops(), nullptr);
#endif
}

}  // namespace
}  // namespace slam
