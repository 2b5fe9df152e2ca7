// In-memory spans and counters for the traced run. Spans are recorded
// around the library's public calls from outside the library; each carries
// the op it belongs to and its parent span, so a layer's self time is its
// duration minus the part its children cover. Everything stays in memory
// until WriteJsonLines at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

struct SpanRecord {
  std::string name;
  int64_t op = -1;
  int64_t id = -1;
  int64_t parent = -1;  // -1 = a root span
  Clock::time_point start;
  Clock::time_point end;
};

struct CounterRecord {
  std::string name;
  int64_t op = -1;
  int64_t span = -1;  // span the count was taken in, -1 = none
  double value = 0.0;
};

/// Thread-safe span and counter store. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int64_t Begin(std::string_view name, int64_t op, int64_t parent = -1);
  void End(int64_t id);
  /// Records a span whose interval was measured by the caller.
  int64_t Record(std::string_view name, int64_t op, Clock::time_point start,
                 Clock::time_point end, int64_t parent = -1);
  void Count(std::string_view name, int64_t op, double value,
             int64_t span = -1);

  /// Total duration of the spans named `name`, per op.
  std::map<int64_t, double> PerOpMs(std::string_view name) const;
  /// Sum of the counters named `name`, per op.
  std::map<int64_t, double> PerOpCount(std::string_view name) const;
  /// Median over ops of PerOpMs / PerOpCount; 0 when nothing was recorded.
  double MedianMs(std::string_view name) const;
  double MedianCount(std::string_view name) const;

  /// One JSON object per line: every span (with duration and self time)
  /// and every counter.
  slam::Status WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable slam::Mutex mutex_;
  std::vector<SpanRecord> spans_ SLAM_GUARDED_BY(mutex_);
  std::vector<CounterRecord> counters_ SLAM_GUARDED_BY(mutex_);
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int64_t op,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const int64_t id_;
};

/// Median of `values`; 0 for an empty list.
double Median(std::vector<double> values);

}  // namespace perfbench
