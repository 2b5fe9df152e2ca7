#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "report.h"

namespace perfbench {

int64_t Tracer::Begin(std::string_view name, int64_t op, int64_t parent) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  slam::MutexLock lock(&mutex_);
  SpanRecord span;
  span.name = std::string(name);
  span.op = op;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  slam::MutexLock lock(&mutex_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t Tracer::Record(std::string_view name, int64_t op,
                       Clock::time_point start, Clock::time_point end,
                       int64_t parent) {
  if (!enabled_) return -1;
  slam::MutexLock lock(&mutex_);
  SpanRecord span;
  span.name = std::string(name);
  span.op = op;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Count(std::string_view name, int64_t op, double value,
                   int64_t span) {
  if (!enabled_) return;
  slam::MutexLock lock(&mutex_);
  counters_.push_back({std::string(name), op, span, value});
}

std::map<int64_t, double> Tracer::PerOpMs(std::string_view name) const {
  slam::MutexLock lock(&mutex_);
  std::map<int64_t, double> per_op;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) per_op[span.op] += MsBetween(span.start, span.end);
  }
  return per_op;
}

std::map<int64_t, double> Tracer::PerOpCount(std::string_view name) const {
  slam::MutexLock lock(&mutex_);
  std::map<int64_t, double> per_op;
  for (const CounterRecord& counter : counters_) {
    if (counter.name == name) per_op[counter.op] += counter.value;
  }
  return per_op;
}

namespace {

double MedianOfValues(const std::map<int64_t, double>& per_op) {
  std::vector<double> values;
  values.reserve(per_op.size());
  for (const auto& [op, value] : per_op) values.push_back(value);
  return Median(std::move(values));
}

}  // namespace

double Tracer::MedianMs(std::string_view name) const {
  return MedianOfValues(PerOpMs(name));
}

double Tracer::MedianCount(std::string_view name) const {
  return MedianOfValues(PerOpCount(name));
}

slam::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return slam::Status::IoError("cannot write trace to " + path);
  slam::MutexLock lock(&mutex_);
  // Self time: the span minus the time its children cover. Children of one
  // span are sequential calls here, so their durations simply add.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          MsBetween(span.start, span.end);
    }
  }
  for (const SpanRecord& span : spans_) {
    const double dur = MsBetween(span.start, span.end);
    JsonObject line;
    line.Add("type", "span");
    line.Add("name", span.name);
    line.Add("op", span.op);
    line.Add("id", span.id);
    line.Add("parent", span.parent);
    line.Add("start_ms", MsBetween(epoch_, span.start));
    line.Add("end_ms", MsBetween(epoch_, span.end));
    line.Add("dur_ms", dur);
    line.Add("self_ms", dur - child_ms[static_cast<size_t>(span.id)]);
    std::fprintf(file.get(), "%s\n", line.ToString().c_str());
  }
  for (const CounterRecord& counter : counters_) {
    JsonObject line;
    line.Add("type", "counter");
    line.Add("name", counter.name);
    line.Add("op", counter.op);
    line.Add("span", counter.span);
    line.Add("value", counter.value);
    std::fprintf(file.get(), "%s\n", line.ToString().c_str());
  }
  return slam::Status::OK();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
