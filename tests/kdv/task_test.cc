#include "kdv/task.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "testing/test_util.h"
#include "util/validate.h"

namespace slam {
namespace {

using testing::MakeGrid;

KdvTask ValidTask(const std::vector<Point>& pts, const Grid& grid) {
  KdvTask task;
  task.points = pts;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 2.0;
  task.weight = 0.5;
  task.grid = grid;
  return task;
}

TEST(ValidateTaskTest, AcceptsValid) {
  const std::vector<Point> pts{{1, 1}};
  EXPECT_TRUE(ValidateTask(ValidTask(pts, MakeGrid(4, 4, 10.0))).ok());
}

TEST(ValidateTaskTest, RejectsEmptyGrid) {
  const std::vector<Point> pts{{1, 1}};
  KdvTask task = ValidTask(pts, MakeGrid(4, 4, 10.0));
  task.grid = Grid{};
  EXPECT_FALSE(ValidateTask(task).ok());
}

TEST(ValidateTaskTest, RejectsBadBandwidth) {
  const std::vector<Point> pts{{1, 1}};
  KdvTask task = ValidTask(pts, MakeGrid(4, 4, 10.0));
  task.bandwidth = 0.0;
  EXPECT_FALSE(ValidateTask(task).ok());
  task.bandwidth = -3.0;
  EXPECT_FALSE(ValidateTask(task).ok());
  task.bandwidth = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateTask(task).ok());
}

TEST(ValidateTaskTest, RejectsBadWeight) {
  const std::vector<Point> pts{{1, 1}};
  KdvTask task = ValidTask(pts, MakeGrid(4, 4, 10.0));
  task.weight = 0.0;
  EXPECT_FALSE(ValidateTask(task).ok());
  task.weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateTask(task).ok());
}

TEST(ValidateTaskTest, EmptyPointsAreLegal) {
  KdvTask task = ValidTask({}, MakeGrid(4, 4, 10.0));
  EXPECT_TRUE(ValidateTask(task).ok());  // zero density everywhere
}

TEST(ValidateTaskTest, PointRuleAgreesWithCheckCoordinate) {
  // ValidateTask rejects, CopyFinitePoints drops and CheckCoordinate
  // refuses exactly the same coordinates, on either axis.
  constexpr double kCap = InputLimits::kMaxCoordinateMagnitude;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    bool accepted;
  } cases[] = {
      {0.0, true},
      {-0.0, true},
      {std::numeric_limits<double>::denorm_min(), true},
      {kCap, true},
      {-kCap, true},
      {std::nextafter(kCap, kInf), false},
      {std::nextafter(-kCap, -kInf), false},
      {kInf, false},
      {-kInf, false},
      {std::numeric_limits<double>::quiet_NaN(), false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(CheckCoordinate(c.value, "v").ok(), c.accepted) << c.value;
    for (const bool on_x : {true, false}) {
      SCOPED_TRACE(std::to_string(c.value) + (on_x ? " in x" : " in y"));
      const Point odd = on_x ? Point{c.value, 1.0} : Point{1.0, c.value};
      const std::vector<Point> pts{{1.0, 1.0}, odd};
      EXPECT_EQ(ValidateTask(ValidTask(pts, MakeGrid(4, 4, 10.0))).ok(),
                c.accepted);
      std::vector<Point> kept;
      EXPECT_EQ(CopyFinitePoints(pts, &kept), c.accepted ? 0u : 1u);
      EXPECT_EQ(kept.size(), c.accepted ? 2u : 1u);
    }
  }
}

TEST(MakeTaskTest, DerivesWeightAndGrid) {
  PointDataset ds("d");
  ds.Add({0, 0});
  ds.Add({10, 10});
  ds.Add({5, 5});
  ds.Add({2, 8});
  const Viewport v =
      *Viewport::Create(BoundingBox({0, 0}, {10, 10}), 20, 10);
  const KdvTask task = MakeTask(ds, v, KernelType::kQuartic, 1.5);
  EXPECT_EQ(task.points.size(), 4u);
  EXPECT_EQ(task.kernel, KernelType::kQuartic);
  EXPECT_DOUBLE_EQ(task.bandwidth, 1.5);
  EXPECT_DOUBLE_EQ(task.weight, 0.25);
  EXPECT_EQ(task.grid.width(), 20);
  EXPECT_EQ(task.grid.height(), 10);
}

TEST(MakeTaskTest, EmptyDatasetGetsUnitWeight) {
  const PointDataset ds("empty");
  const Viewport v = *Viewport::Create(BoundingBox({0, 0}, {1, 1}), 2, 2);
  EXPECT_DOUBLE_EQ(
      MakeTask(ds, v, KernelType::kUniform, 1.0).weight, 1.0);
}

TEST(TranslatedTaskTest, ShiftsPointsAndGridConsistently) {
  const std::vector<Point> pts{{10, 20}, {12, 22}};
  const KdvTask task = ValidTask(pts, MakeGrid(4, 4, 10.0));
  const TranslatedTask translated(task, 10.0, 20.0);
  const KdvTask& t = translated.task();
  EXPECT_EQ(t.points[0], (Point{0.0, 0.0}));
  EXPECT_EQ(t.points[1], (Point{2.0, 2.0}));
  // Pixel center (i, j) shifts by the same offset, so relative geometry —
  // and hence the density — is unchanged.
  const Point before = task.grid.PixelCenter(1, 2);
  const Point after = t.grid.PixelCenter(1, 2);
  EXPECT_DOUBLE_EQ(before.x - after.x, 10.0);
  EXPECT_DOUBLE_EQ(before.y - after.y, 20.0);
  EXPECT_EQ(t.bandwidth, task.bandwidth);
  EXPECT_EQ(t.weight, task.weight);
}

TEST(TransposedTaskTest, SwapsEverything) {
  const std::vector<Point> pts{{1, 2}};
  KdvTask task = ValidTask(pts, MakeGrid(6, 3, 12.0));
  const TransposedTask transposed(task);
  const KdvTask& t = transposed.task();
  EXPECT_EQ(t.points[0], (Point{2.0, 1.0}));
  EXPECT_EQ(t.grid.width(), 3);
  EXPECT_EQ(t.grid.height(), 6);
  // Distances are preserved under the swap, pairing pixel (i,j) with (j,i).
  const Point q = task.grid.PixelCenter(4, 1);
  const Point qt = t.grid.PixelCenter(1, 4);
  EXPECT_DOUBLE_EQ(SquaredDistance(q, pts[0]),
                   SquaredDistance(qt, t.points[0]));
}

TEST(ComputeOptionsTest, Defaults) {
  const ComputeOptions opts;
  EXPECT_EQ(opts.exec, nullptr);
  EXPECT_GT(opts.zorder_epsilon, 0.0);
  EXPECT_GE(opts.akde_epsilon, 0.0);
  EXPECT_EQ(opts.quad_epsilon, 0.0);
}

}  // namespace
}  // namespace slam
