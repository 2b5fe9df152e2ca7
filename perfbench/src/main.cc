// slam_perfbench: runs one benchmark workload and prints its metrics.
//
//   slam_perfbench --workload explore_tall --seed 1 --seconds 35 --trace 0
//       [--trace-out FILE] [--work-dir DIR]
//
// The last line of standard output is the result: correct, attempted,
// failed and the metrics with their units (end-to-end with --trace 0,
// per-layer with --trace 1). The line before it is the run's context. A
// failed set-up prints no result and exits non-zero.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "slam_perfbench: %s\n"
               "usage: slam_perfbench --workload "
               "explore_tall|render_wide_mt|serve_open --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--work-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return Usage("malformed number");
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.trace_path.empty()) {
    options.trace_path = "trace-" + workload + "-seed" +
                         std::to_string(options.seed) + ".jsonl";
  }

  // The process keeps the memory it frees, as a long-running server's warm
  // heap does, instead of returning each op's rasters to the kernel and
  // faulting them back in on the next op. On a virtual machine whose host
  // reclaims returned pages, those faults cost 10-15 ms an op and varied
  // with the host's memory traffic. Allocation growth still shows in
  // peak_rss_mib.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  slam::Result<perfbench::RunResult> result =
      slam::Status::InvalidArgument("unknown workload '" + workload + "'");
  if (workload == "explore_tall") {
    result = perfbench::RunExploreTall(options);
  } else if (workload == "render_wide_mt") {
    result = perfbench::RunRenderWideMt(options);
  } else if (workload == "serve_open") {
    result = perfbench::RunServeOpen(options);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "slam_perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  perfbench::JsonObject context;
  context.Add("workload", workload);
  context.Add("seed", static_cast<int64_t>(options.seed));
  context.Add("seconds", options.seconds);
  context.Add("trace", options.trace);
  if (options.trace) context.Add("trace_file", options.trace_path);
  context.Add("detail", result->detail);
  std::printf("%s\n", context.ToString().c_str());
  std::printf("%s\n", perfbench::ResultLine(*result,
                                            options.trace
                                                ? perfbench::kPerLayerMetrics
                                                : perfbench::kEndToEndMetrics)
                          .c_str());
  return 0;
}
