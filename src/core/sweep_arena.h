// Per-thread reusable workspace for the endpoint sweep methods (DESIGN.md
// §12). Every lane a compute's line passes (simd/sweep_ops.h) touch lives
// here, so a line costs zero allocations, and — via the thread-local
// borrow in ScopedArena — consecutive computes on the same thread
// (parallel stripes, animation frames, serving retries) reuse the same heap
// instead of re-growing it. The engine's path uses the interval and
// bucket-index lanes, the bucket lane, qx and, for column sweeps, the line
// lane, all sized before its first line; its lines read each envelope in
// place from the call's swept copy (core/envelope.h SweptCopy), so it
// never sizes the envelope lanes. The direct entry's scan and counting
// sort use the envelope, interval and bucket-index lanes, the run offsets,
// cursors and run lanes, qx and the row sweep's scratch.
//
// Accounting contract: the arena's heap is charged against the borrowing
// compute's ExecContext memory budget (ScopedMemoryCharge over HeapBytes())
// for the duration of that compute. Between computes the thread arena holds
// its memory uncharged — it is a thread cache, like a malloc arena; the
// engine's pre-flight (EstimateAuxiliarySpaceBytes) still sees the full
// per-compute footprint. A compute whose charge fails must first
// ShrinkToFit() and charge again — the excess may be capacity an earlier,
// larger compute on this thread left behind — and, if that fails too,
// Release() before surfacing the error, so a tightened budget is honored
// on the next attempt rather than failing forever against cached capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/sweep_ops.h"

namespace slam {

/// std::allocator with a stronger alignment, for lanes the vector backends
/// read in whole registers or cache lines.
template <typename T, size_t kAlign>
struct AlignedAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>& /*other*/) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, size_t /*n*/) {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

struct SweepArena {
  // The direct entry's SoA envelope (global coordinates), which its scan
  // writes; the engine's lines read the swept copy instead.
  std::vector<double> ex, ey;
  // Interval endpoints (the bound_intervals pass).
  std::vector<double> lb, ub;
  // Pixel bucket of every endpoint (the bucket_indices pass).
  std::vector<int32_t> lower_idx, upper_idx;
  // The engine's X + 1 buckets of BucketStride(kernel) doubles each
  // (bucket_sweep), 64-byte aligned so an Epanechnikov bucket is one line.
  std::vector<double, AlignedAllocator<double, 64>> buckets;
  // The direct entry's counting sort: per-pixel run offsets (X + 2) and
  // scatter cursors (X + 1) for the histogram_scatter pass, endpoints
  // scattered into contiguous row-local SoA lanes.
  std::vector<int32_t> lower_offsets, upper_offsets;
  std::vector<int32_t> lower_cursor, upper_cursor;
  std::vector<double> lower_px, lower_py, upper_px, upper_py;
  // Row-local pixel x-coordinates. Identical for every row of a compute,
  // and cached across computes keyed on the axis parameters, so a stripe
  // worker rendering the same grid repeatedly never refills it.
  std::vector<double> qx;
  // A block of up to kColumnBlockLines swept lines' densities when the
  // lines are columns of the output (SweptLines::kColumns,
  // core/sweep_rows.h): bucket_sweep writes each line here, and the driver
  // stores the block across the raster one row at a time. Empty for row
  // sweeps.
  std::vector<double> line;
  RowSweepScratch scratch;

  /// The engine's lanes, all sized here so that no line resizes them: the
  /// interval and bucket-index lanes to `widest` points, the bucket lane to
  /// X + 1 buckets of `kernel`, and qx. The direct entry's envelope lanes
  /// and counting-sort lanes are emptied, so ShrinkToFit can drop what a
  /// direct compute left in them.
  void PrepareCompute(size_t widest, const GridAxis& xs, KernelType kernel);

  /// The direct entry's per-compute lanes: envelope lanes to all
  /// `envelope_lanes` points the rows scan (the dispatched filter writes
  /// survivors through a raw cursor — see SimdOps::envelope_filter),
  /// offset/cursor arrays to the pixel axis, and qx. The engine's bucket
  /// and line lanes are emptied.
  void PrepareCompute(size_t envelope_lanes, const GridAxis& xs);

  /// Sizes the direct entry's per-row endpoint lanes for `num_endpoints`
  /// envelope points.
  void PrepareRow(size_t num_endpoints);

  /// Heap held by the arena, accounted against the borrowing compute's
  /// memory budget.
  size_t HeapBytes() const;

  /// Frees the capacity beyond every lane's current size and the row
  /// sweep's scratch (which no backend grows), keeping the contents of the
  /// sized lanes: what remains is what this compute uses.
  void ShrinkToFit();

  /// Frees every lane (and invalidates the qx cache) so a failed budget
  /// charge is not sticky across computes.
  void Release();

 private:
  /// Fills qx unless the cache key (origin, gap, count) already matches.
  void PrepareQx(const GridAxis& xs);

  bool qx_valid_ = false;
  double qx_origin_ = 0.0;
  double qx_gap_ = 0.0;
  int qx_count_ = 0;
};

/// RAII borrow of the calling thread's arena. The thread-local arena is
/// handed to one borrower at a time; a nested borrow (a compute issued from
/// inside another compute on the same thread) falls back to a private
/// heap-allocated arena so the outer compute's lanes are never clobbered.
class ScopedArena {
 public:
  ScopedArena();
  ~ScopedArena();

  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

  SweepArena& operator*() { return *arena_; }
  SweepArena* operator->() { return arena_; }

  /// True when this borrow got the shared thread arena (false = nested
  /// fallback). Exposed for the reuse tests.
  bool owns_thread_arena() const { return borrowed_thread_arena_; }

 private:
  SweepArena* arena_ = nullptr;
  std::unique_ptr<SweepArena> fallback_;
  bool borrowed_thread_arena_ = false;
};

/// The calling thread's shared arena, for tests that assert reuse (lane
/// capacity surviving across computes) without reaching into ScopedArena.
SweepArena& ThreadSweepArenaForTest();

}  // namespace slam
