// Metric names, units and the one-line JSON result of a benchmark run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace spbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0). Later changes claim gains by these
/// names; BENCHMARK.json lists the same names with their bounds.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by traced runs (--trace 1).
const std::vector<MetricDef>& PerLayerMetrics();

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;
};

/// The result line: every metric of the selected list, in list order.
/// Returns an empty string (and names the gap on stderr) when a metric of
/// the list has no value or a value is not finite.
std::string ReportJson(const Report& report, bool trace);

/// Weighted percentile (0 < q <= 1) of (value, weight) samples: the
/// smallest value whose cumulative weight reaches q of the total.
double WeightedPercentile(std::vector<std::pair<double, int64_t>> samples,
                          double q);

double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

}  // namespace spbench
