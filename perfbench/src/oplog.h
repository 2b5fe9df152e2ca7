// Op accounting for one measured phase: which ops succeeded, which failed
// and why, and the latency distribution with failures ranked as missing
// every latency limit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kdv/density_map.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

/// Why an op counts as failed. A failed op never contributes a latency
/// sample; it ranks above every sample in the percentiles instead.
enum class OpFailure {
  kStatus,       // the library returned a non-OK status
  kWrongRaster,  // the raster failed its check against the reference
  kShed,         // the serving core refused the request
  kDeadline,     // the request expired or finished past its deadline
};

/// A latency percentile together with the rank it was read at.
struct TailLatency {
  double percentile = 0.0;
  /// Unset when the percentile falls on a failed op.
  std::optional<double> ms;
};

/// Thread-safe: the open-loop workload records from several threads.
class OpLog {
 public:
  /// A completed op whose output passed its check. Degraded answers are
  /// latency samples but not goodput.
  void RecordSuccess(double latency_ms, bool full_fidelity);
  /// A failed op and the time it took; the time counts as busy time but
  /// never as a latency sample.
  void RecordFailure(OpFailure why, double elapsed_ms);

  int64_t attempted() const;
  int64_t failed() const;
  int64_t failed(OpFailure why) const;
  /// Correct, full-fidelity ops (the goodput numerator).
  int64_t good() const;
  int64_t samples() const;

  /// Median over attempted ops, failures ranked as +inf; unset when the
  /// median falls on a failure or nothing was attempted.
  std::optional<double> MedianMs() const;
  /// The highest percentile of kTailLadder with at least kTailBeyond
  /// attempted ops ranked beyond it (nearest rank).
  TailLatency Tail() const;

  /// Time spent in every attempted op, failed ones included: the busy time
  /// of a closed loop.
  double BusyMs() const;
  /// Correct, full-fidelity ops per second of busy time. A failed op adds
  /// to the time but not to the count, so it lowers goodput.
  double ClosedLoopGoodput() const;

  static constexpr int kTailBeyond = 10;

 private:
  /// Sorted latencies followed by one +inf per failure.
  std::vector<double> Ranked() const;

  mutable slam::Mutex mutex_;
  std::vector<double> latencies_ms_ SLAM_GUARDED_BY(mutex_);
  double busy_ms_ SLAM_GUARDED_BY(mutex_) = 0.0;
  int64_t good_ SLAM_GUARDED_BY(mutex_) = 0;
  int64_t failures_[4] SLAM_GUARDED_BY(mutex_) = {0, 0, 0, 0};
};

/// The op's output check: every pixel finite and within kRasterTolerance of
/// the reference peak (testing::CompareToReference with the floor at the
/// peak). Writes the measured peak-relative error when `max_rel_error` is
/// non-null.
bool RasterMatches(const slam::DensityMap& actual,
                   const slam::DensityMap& reference,
                   double* max_rel_error = nullptr);

constexpr double kRasterTolerance = 1e-9;

/// Books a full-fidelity answer that took `latency_ms`: a success when the
/// raster passes RasterMatches, else a kWrongRaster failure. Returns the
/// measured peak-relative error.
double BookChecked(const slam::DensityMap& actual,
                   const slam::DensityMap& reference, double latency_ms,
                   OpLog* log);

/// The failure a served request counts as, if any: a shed (ResourceExhausted)
/// or expired (DeadlineExceeded) status, any other non-OK status, or an
/// answer that came back after `deadline_ms`.
std::optional<OpFailure> ServedFailure(const slam::Status& status,
                                       double latency_ms, double deadline_ms);

}  // namespace perfbench
