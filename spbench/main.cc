// spbench — the spstream benchmark program.
//
//   spbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//   spbench --list-metrics
//
// Prints the run's result as one JSON line on stdout (the last line);
// diagnostics go to stderr. See NOTES.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: spbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       spbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : spbench::EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const auto& m : spbench::PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      for (const auto& w : spbench::WorkloadNames()) {
        std::printf("workload %s\n", w.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0) return Usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  spbench::Report report;
  const int rc = spbench::RunWorkload(options, &report);
  if (rc != 0) return rc;
  const std::string json = spbench::ReportJson(report, options.trace);
  if (json.empty()) return 4;
  std::cout << json << std::endl;
  return 0;
}
