#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void JsonObject::AddRaw(std::string_view key, std::string raw) {
  fields_.emplace_back(std::string(key), std::move(raw));
}

void JsonObject::Add(std::string_view key, double value) {
  AddRaw(key, Number(value));
}

void JsonObject::Add(std::string_view key, int64_t value) {
  AddRaw(key, std::to_string(value));
}

void JsonObject::Add(std::string_view key, bool value) {
  AddRaw(key, value ? "true" : "false");
}

void JsonObject::Add(std::string_view key, const char* value) {
  AddRaw(key, Quoted(value));
}

void JsonObject::Add(std::string_view key, const std::string& value) {
  AddRaw(key, Quoted(value));
}

void JsonObject::Add(std::string_view key, std::optional<double> value) {
  AddRaw(key, value ? Number(*value) : "null");
}

void JsonObject::Add(std::string_view key, const JsonObject& value) {
  AddRaw(key, value.ToString());
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"goodput_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    // Setup.
    {"data.generate_ms", "ms"},
    {"kdv.bandwidth_ms", "ms"},
    {"explore.create_ms", "ms"},
    {"serve.create_ms", "ms"},
    // Engine.
    {"kdv.compute_ms", "ms"},
    {"kdv.validate_ms", "ms"},
    {"kdv.recenter_ms", "ms"},
    {"kdv.prologue_self_ms", "ms"},
    // Core.
    {"core.rao_in_ms", "ms"},
    {"core.rao_out_ms", "ms"},
    {"core.sweep_ms", "ms"},
    {"core.rao_speedup", "x"},
    {"core.arena_heap_mib", "MiB"},
    // SIMD passes, replayed through the public ops table.
    {"simd.envelope_filter_ms", "ms"},
    {"simd.bound_intervals_ms", "ms"},
    {"simd.bucket_indices_ms", "ms"},
    {"simd.histogram_scatter_ms", "ms"},
    {"simd.row_sweep_ms", "ms"},
    {"simd.lines", "count"},
    {"simd.envelope_points_sum", "count"},
    {"simd.envelope_points_max", "count"},
    {"simd.envelope_hit_ratio", "ratio"},
    {"simd.parked_endpoint_ratio", "ratio"},
    {"simd.replay_coverage", "ratio"},
    // Parallel.
    {"parallel.serial_ms", "ms"},
    {"parallel.speedup", "x"},
    {"parallel.efficiency", "ratio"},
    // Explore.
    {"explore.view_op_us", "us"},
    {"explore.render_ms", "ms"},
    // Serve.
    {"serve.handle_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.gate_self_ms", "ms"},
    {"serve.attempts_per_request", "ratio"},
    {"serve.degraded_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.deadline_frac", "ratio"},
    {"serve.breaker_opened", "count"},
    // Load generator.
    {"load.offered_per_s", "1/s"},
    {"load.late_ms_p99", "ms"},
    {"load.late_ms_max", "ms"},
    // The trace itself.
    {"trace.coverage", "ratio"},
    {"trace.compute_coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

void AddEndToEnd(const OpLog& log, double goodput_per_s, double peak_rss_mib,
                 double setup_s, RunResult* result) {
  const TailLatency tail = log.Tail();
  result->metrics["op_ms_p50"] = log.MedianMs();
  result->metrics["op_ms_tail"] = tail.ms;
  result->metrics["goodput_per_s"] = goodput_per_s;
  result->metrics["peak_rss_mib"] = peak_rss_mib;
  result->metrics["setup_s"] = setup_s;
  result->attempted += log.attempted();
  result->failed += log.failed();
  result->detail.Add("op_samples", log.samples());
  result->detail.Add("tail_percentile", tail.percentile);
  result->detail.Add("failed_status", log.failed(OpFailure::kStatus));
  result->detail.Add("failed_wrong_raster",
                     log.failed(OpFailure::kWrongRaster));
  result->detail.Add("failed_shed", log.failed(OpFailure::kShed));
  result->detail.Add("failed_deadline", log.failed(OpFailure::kDeadline));
  if (log.failed(OpFailure::kWrongRaster) > 0) result->correct = false;
}

std::string ResultLine(const RunResult& result,
                       const std::vector<MetricSpec>& specs) {
  JsonObject metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    JsonObject metric;
    metric.Add("value", it == result.metrics.end() ? std::optional<double>(0.0)
                                                   : it->second);
    metric.Add("unit", spec.unit);
    metrics.Add(spec.name, metric);
  }
  JsonObject line;
  line.Add("correct", result.correct);
  line.Add("attempted", result.attempted);
  line.Add("failed", result.failed);
  line.Add("metrics", metrics);
  return line.ToString();
}

}  // namespace perfbench
