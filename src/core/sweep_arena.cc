#include "core/sweep_arena.h"

#include "core/sweep_state.h"
#include "util/narrow.h"

namespace slam {

namespace {

thread_local SweepArena t_thread_arena;
thread_local bool t_thread_arena_in_use = false;

}  // namespace

void SweepArena::PrepareCompute(size_t widest, const GridAxis& xs,
                                KernelType kernel) {
  for (std::vector<double>* lane : {&ex, &ey, &lb, &ub}) lane->resize(widest);
  lower_idx.resize(widest);
  upper_idx.resize(widest);
  buckets.resize((CheckedSize(xs.count) + 1) * BucketStride(kernel));
  for (std::vector<double>* lane :
       {&lower_px, &lower_py, &upper_px, &upper_py}) {
    lane->clear();
  }
  for (std::vector<int32_t>* lane :
       {&lower_offsets, &upper_offsets, &lower_cursor, &upper_cursor}) {
    lane->clear();
  }
  PrepareQx(xs);
}

void SweepArena::PrepareCompute(size_t envelope_lanes, const GridAxis& xs) {
  ex.resize(envelope_lanes);
  ey.resize(envelope_lanes);
  const size_t pixels = CheckedSize(xs.count);
  // size_t arithmetic: pixels + 2 overflows `int` when the axis is within
  // 2 pixels of INT_MAX (regression test in tests/kdv/grid_overflow_test.cc).
  lower_offsets.resize(pixels + 2);
  upper_offsets.resize(pixels + 2);
  lower_cursor.resize(pixels + 1);
  upper_cursor.resize(pixels + 1);
  buckets.clear();
  line.clear();
  PrepareQx(xs);
}

void SweepArena::PrepareQx(const GridAxis& xs) {
  if (qx_valid_ && qx_origin_ == xs.origin && qx_gap_ == xs.gap &&
      qx_count_ == xs.count) {
    return;
  }
  // The row-local frame's x-origin is row-independent, so the translated
  // pixel coordinates serve every row — and every later compute on the
  // same axis.
  const double origin_x = RowLocalOrigin(xs, WorldY(0.0)).x;
  qx.resize(CheckedSize(xs.count));
  for (int ix = 0; ix < xs.count; ++ix) {
    qx[CheckedSize(ix)] = xs.Coord(ix) - origin_x;
  }
  qx_valid_ = true;
  qx_origin_ = xs.origin;
  qx_gap_ = xs.gap;
  qx_count_ = xs.count;
}

void SweepArena::PrepareRow(size_t num_endpoints) {
  lb.resize(num_endpoints);
  ub.resize(num_endpoints);
  lower_idx.resize(num_endpoints);
  upper_idx.resize(num_endpoints);
  lower_px.resize(num_endpoints);
  lower_py.resize(num_endpoints);
  upper_px.resize(num_endpoints);
  upper_py.resize(num_endpoints);
}

size_t SweepArena::HeapBytes() const {
  return (ex.capacity() + ey.capacity() + lb.capacity() + ub.capacity() +
          lower_px.capacity() + lower_py.capacity() + upper_px.capacity() +
          upper_py.capacity() + buckets.capacity() + qx.capacity() +
          line.capacity()) *
             sizeof(double) +
         (lower_idx.capacity() + upper_idx.capacity() +
          lower_offsets.capacity() + upper_offsets.capacity() +
          lower_cursor.capacity() + upper_cursor.capacity()) *
             sizeof(int32_t) +
         scratch.HeapBytes();
}

void SweepArena::ShrinkToFit() {
  for (std::vector<double>* lane : {&ex, &ey, &lb, &ub, &lower_px, &lower_py,
                                    &upper_px, &upper_py, &qx, &line}) {
    lane->shrink_to_fit();
  }
  buckets.shrink_to_fit();
  for (std::vector<int32_t>* lane :
       {&lower_idx, &upper_idx, &lower_offsets, &upper_offsets, &lower_cursor,
        &upper_cursor}) {
    lane->shrink_to_fit();
  }
  scratch = RowSweepScratch();
}

void SweepArena::Release() {
  *this = SweepArena();
}

ScopedArena::ScopedArena() {
  if (!t_thread_arena_in_use) {
    t_thread_arena_in_use = true;
    borrowed_thread_arena_ = true;
    arena_ = &t_thread_arena;
  } else {
    fallback_ = std::make_unique<SweepArena>();
    arena_ = fallback_.get();
  }
}

ScopedArena::~ScopedArena() {
  if (borrowed_thread_arena_) t_thread_arena_in_use = false;
}

SweepArena& ThreadSweepArenaForTest() { return t_thread_arena; }

}  // namespace slam
