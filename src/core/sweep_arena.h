// Per-thread reusable workspace for the endpoint sweep methods (DESIGN.md
// §12). One compute over a Y-row grid runs Y rows through the same five
// dispatched passes (simd/sweep_ops.h); every lane the passes touch lives
// here so a row costs zero allocations once the arena has grown to the
// task's high-water mark, and — via the thread-local borrow in ScopedArena —
// consecutive computes on the same thread (parallel stripes, animation
// frames, serving retries) reuse the same heap instead of re-growing it.
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
#include <vector>

#include "kdv/grid.h"
#include "simd/sweep_ops.h"

namespace slam {

struct SweepArena {
  // SoA envelope (global coordinates) and interval endpoints.
  std::vector<double> ex, ey;
  std::vector<double> lb, ub;
  // Pixel bucket of every endpoint (the bucket_indices pass).
  std::vector<int32_t> lower_idx, upper_idx;
  // Per-pixel run offsets (X + 2) and scatter cursors (X + 1) for the
  // histogram_scatter pass; endpoints scattered into contiguous row-local
  // SoA lanes.
  std::vector<int32_t> lower_offsets, upper_offsets;
  std::vector<int32_t> lower_cursor, upper_cursor;
  std::vector<double> lower_px, lower_py, upper_px, upper_py;
  // Row-local pixel x-coordinates. Identical for every row of a compute,
  // and cached across computes keyed on the axis parameters, so a stripe
  // worker rendering the same grid repeatedly never refills it.
  std::vector<double> qx;
  RowSweepScratch scratch;

  /// Sizes the per-compute lanes: envelope lanes to `envelope_lanes` —
  /// the full point count when the rows scan (the dispatched filter writes
  /// survivors through a raw cursor, whole registers at a time — see
  /// SimdOps::envelope_filter), the widest envelope when they slice sorted
  /// points — offset/cursor arrays to the pixel axis, and qx filled unless
  /// the cache key (origin, gap, count) already matches.
  void PrepareCompute(size_t envelope_lanes, const GridAxis& xs);

  /// Sizes the per-row endpoint lanes for `num_endpoints` envelope points.
  void PrepareRow(size_t num_endpoints);

  /// Heap held by the arena, accounted against the borrowing compute's
  /// memory budget.
  size_t HeapBytes() const;

  /// Frees the capacity beyond every lane's current size and the row
  /// sweep's scratch (which the next row_sweep regrows), keeping the
  /// contents of the sized lanes: what remains is what this compute uses.
  void ShrinkToFit();

  /// Frees every lane (and invalidates the qx cache) so a failed budget
  /// charge is not sticky across computes.
  void Release();

 private:
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
