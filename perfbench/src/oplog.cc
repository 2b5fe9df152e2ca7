#include "oplog.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "testing/oracle.h"

namespace perfbench {

namespace {

// Each rung needs 10 / (1 - p) ops: 1000, 500, 100, 40 and 20. The wide
// bands keep a run's sample count, which varies a little with the seed and
// the machine, on one rung, so the tail metric stays the same percentile.
constexpr double kTailLadder[] = {99.0, 98.0, 90.0, 75.0, 50.0};

}  // namespace

void OpLog::RecordSuccess(double latency_ms, bool full_fidelity) {
  slam::MutexLock lock(&mutex_);
  latencies_ms_.push_back(latency_ms);
  busy_ms_ += latency_ms;
  if (full_fidelity) ++good_;
}

void OpLog::RecordFailure(OpFailure why, double elapsed_ms) {
  slam::MutexLock lock(&mutex_);
  ++failures_[static_cast<int>(why)];
  busy_ms_ += elapsed_ms;
}

int64_t OpLog::attempted() const {
  slam::MutexLock lock(&mutex_);
  int64_t n = static_cast<int64_t>(latencies_ms_.size());
  for (const int64_t f : failures_) n += f;
  return n;
}

int64_t OpLog::failed() const {
  slam::MutexLock lock(&mutex_);
  int64_t n = 0;
  for (const int64_t f : failures_) n += f;
  return n;
}

int64_t OpLog::failed(OpFailure why) const {
  slam::MutexLock lock(&mutex_);
  return failures_[static_cast<int>(why)];
}

int64_t OpLog::good() const {
  slam::MutexLock lock(&mutex_);
  return good_;
}

int64_t OpLog::samples() const {
  slam::MutexLock lock(&mutex_);
  return static_cast<int64_t>(latencies_ms_.size());
}

double OpLog::BusyMs() const {
  slam::MutexLock lock(&mutex_);
  return busy_ms_;
}

double OpLog::ClosedLoopGoodput() const {
  slam::MutexLock lock(&mutex_);
  return busy_ms_ > 0.0 ? static_cast<double>(good_) / (busy_ms_ / 1e3) : 0.0;
}

std::vector<double> OpLog::Ranked() const {
  slam::MutexLock lock(&mutex_);
  std::vector<double> ranked = latencies_ms_;
  std::sort(ranked.begin(), ranked.end());
  for (const int64_t f : failures_) {
    ranked.insert(ranked.end(), static_cast<size_t>(f),
                  std::numeric_limits<double>::infinity());
  }
  return ranked;
}

std::optional<double> OpLog::MedianMs() const {
  const std::vector<double> ranked = Ranked();
  if (ranked.empty()) return std::nullopt;
  const size_t n = ranked.size();
  const double median =
      n % 2 == 1 ? ranked[n / 2] : 0.5 * (ranked[n / 2 - 1] + ranked[n / 2]);
  if (std::isinf(median)) return std::nullopt;
  return median;
}

TailLatency OpLog::Tail() const {
  const std::vector<double> ranked = Ranked();
  const size_t n = ranked.size();
  TailLatency tail;
  for (const double p : kTailLadder) {
    // Nearest rank: the smallest sample with at least p% of ops at or
    // below it; every op after it is "beyond".
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || n - rank < static_cast<size_t>(kTailBeyond)) continue;
    tail.percentile = p;
    if (!std::isinf(ranked[rank - 1])) tail.ms = ranked[rank - 1];
    return tail;
  }
  return tail;
}

bool RasterMatches(const slam::DensityMap& actual,
                   const slam::DensityMap& reference, double* max_rel_error) {
  for (const double v : actual.values()) {
    if (!std::isfinite(v)) return false;
  }
  // A floor at the full peak makes every pixel's error relative to the
  // peak density, the scale a rendered map is read at.
  const auto report =
      slam::testing::CompareToReference(actual, reference, 1.0);
  if (!report.ok()) return false;
  if (max_rel_error != nullptr) *max_rel_error = report->max_rel_error;
  return report->reference_peak > 0.0 &&
         report->max_rel_error <= kRasterTolerance;
}

double BookChecked(const slam::DensityMap& actual,
                   const slam::DensityMap& reference, double latency_ms,
                   OpLog* log) {
  double error = 0.0;
  if (RasterMatches(actual, reference, &error)) {
    log->RecordSuccess(latency_ms, true);
  } else {
    log->RecordFailure(OpFailure::kWrongRaster, latency_ms);
  }
  return error;
}

std::optional<OpFailure> ServedFailure(const slam::Status& status,
                                       double latency_ms, double deadline_ms) {
  if (status.IsResourceExhausted()) return OpFailure::kShed;
  if (status.IsDeadlineExceeded()) return OpFailure::kDeadline;
  if (!status.ok()) return OpFailure::kStatus;
  if (latency_ms > deadline_ms) return OpFailure::kDeadline;
  return std::nullopt;
}

}  // namespace perfbench
