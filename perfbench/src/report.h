// What a run prints: a flat JSON writer, the metric tables, and the peak
// RSS watermark (read through bench/common/harness.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/harness.h"
#include "oplog.h"

namespace perfbench {

/// Insertion-ordered JSON object. Non-finite numbers and unset optionals
/// are written as null; numbers keep all 17 significant digits.
class JsonObject {
 public:
  void Add(std::string_view key, double value);
  void Add(std::string_view key, int64_t value);
  void Add(std::string_view key, int value) {
    Add(key, static_cast<int64_t>(value));
  }
  void Add(std::string_view key, bool value);
  void Add(std::string_view key, const char* value);
  void Add(std::string_view key, const std::string& value);
  void Add(std::string_view key, std::optional<double> value);
  void Add(std::string_view key, const JsonObject& value);

  std::string ToString() const;

 private:
  void AddRaw(std::string_view key, std::string raw);

  std::vector<std::pair<std::string, std::string>> fields_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports with the trace off.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// The per-layer metrics every workload reports with the trace on; a layer
/// a workload does not exercise reads 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Metric values by name; unset = null (a number that could not be
/// measured honestly, e.g. pass timings from an inexact replay).
using MetricValues = std::map<std::string, std::optional<double>>;

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricValues metrics;
  /// Context printed on the line before the result: sample counts, the
  /// tail percentile, the offered rate, check errors.
  JsonObject detail;
};

/// Fills the five end-to-end metrics (and their context) from a measured
/// phase.
void AddEndToEnd(const OpLog& log, double goodput_per_s, double peak_rss_mib,
                 double setup_s, RunResult* result);

/// The result line: correct, attempted, failed and the metrics of `specs`
/// with their units, in that order.
std::string ResultLine(const RunResult& result,
                       const std::vector<MetricSpec>& specs);

/// The repository's bench harness resets the kernel's peak-RSS watermark.
using slam::bench::ResetPeakRss;
/// Peak RSS since the last ResetPeakRss, in MiB (VmHWM); 0 where
/// unsupported.
inline double PeakRssMiB() {
  return static_cast<double>(slam::bench::PeakRssBytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
