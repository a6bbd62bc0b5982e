// The three benchmark workloads and the pass loop they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace spbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace JSON written at the end of a traced run ("" = none).
  std::string trace_out;
};

const std::vector<std::string>& WorkloadNames();

/// Run one workload for `options.seconds` of timed phase and fill `report`.
/// Returns 0, or a nonzero exit code after naming the failure on stderr: a
/// leak found by the reference (the run aborts fail-closed), a missing
/// operator label, an unknown workload.
int RunWorkload(const RunOptions& options, Report* report);

}  // namespace spbench
