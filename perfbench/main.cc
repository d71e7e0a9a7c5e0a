// TrajKit benchmark driver.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--work_dir=DIR] [--tiny]
//   perfbench --build_info
//
// Runs one workload (replay_geolife, serve_paced_short, offline_study) and
// prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. --trace=0 reports the end-to-end
// metrics; --trace=1 makes a traced run and reports the per-layer metrics.
// perfbench/run.py builds this binary and is the command to use; see
// perfbench/README.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"points_per_s", "points/s"},
      {"close_to_predict_ms_p50", "ms"},
      {"close_to_predict_ms_p90", "ms"},
      {"sustainable_points_per_s", "points/s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  const std::string prefix = "--" + std::string(name) + "=";
  if (arg.substr(0, prefix.size()) != prefix) return false;
  *value = std::string(arg.substr(prefix.size()));
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=replay_geolife|serve_paced_short|"
               "offline_study --seed=N --seconds=S --trace=0|1 "
               "[--work_dir=DIR] [--tiny]\n"
               "       perfbench --build_info\n");
  return 2;
}

/// Orders the run's metrics by the spec list. A traced run prints every
/// per-layer metric (0 for layers the workload does not touch); a plain
/// run must have produced every end-to-end metric.
bool Finalize(const Options& options, Report* report) {
  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  const std::vector<Report::Metric>& measured = report->metrics();
  for (const Report::Metric& metric : measured) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || metric.name == spec.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                   metric.name.c_str());
      return false;
    }
  }
  std::vector<Report::Metric> ordered;
  for (const MetricSpec& spec : specs) {
    const auto found = std::find_if(
        measured.begin(), measured.end(),
        [&spec](const Report::Metric& m) { return m.name == spec.name; });
    if (found == measured.end() && !options.trace) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      return false;
    }
    ordered.push_back(Report::Metric{
        spec.name, found == measured.end() ? 0.0 : found->value, spec.unit});
  }
  report->ReplaceMetrics(std::move(ordered));
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  std::string seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--build_info") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                  "\"cxx_flags\": \"%s\"}\n",
                  PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                  PERFBENCH_CXX_FLAGS);
      return 0;
    }
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (!ParseFlag(arg, "workload", &options.workload) &&
               !ParseFlag(arg, "seed", &seed) &&
               !ParseFlag(arg, "seconds", &seconds) &&
               !ParseFlag(arg, "trace", &trace) &&
               !ParseFlag(arg, "work_dir", &options.work_dir)) {
      return Usage();
    }
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return Usage();
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(options.seconds > 0.0)) {
    return Usage();
  }
  if (trace != "0" && trace != "1") return Usage();
  options.trace = trace == "1";

  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), error.message().c_str());
    return 1;
  }

  Report report;
  int status = 0;
  if (options.workload == "replay_geolife") {
    status = RunReplayGeolife(options, &report);
  } else if (options.workload == "serve_paced_short") {
    status = RunServePacedShort(options, &report);
  } else if (options.workload == "offline_study") {
    status = RunOfflineStudy(options, &report);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  if (options.trace) {
    report.Add("bench.failed_share",
               report.attempted() == 0
                   ? 0.0
                   : static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               "ratio");
  }
  if (!Finalize(options, &report)) return 1;
  if (report.attempted() == 0) {
    std::fprintf(stderr, "perfbench: the run attempted nothing\n");
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
