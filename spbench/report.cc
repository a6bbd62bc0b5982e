#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace spbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"throughput_tps", "tuples/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"result_match_ratio", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"engine.push.ns_per_elem", "ns/elem"},
      {"engine.run.ns_per_tuple", "ns/tuple"},
      {"engine.take.ns_per_result", "ns/result"},
      {"engine.unattributed_ns_per_tuple", "ns/tuple"},
      {"engine.epoch_p50_us", "us"},
      {"engine.tuples_shed", "count"},
      {"engine.run_epochs", "count"},
      {"analyzer.sps_in", "count"},
      {"analyzer.sps_out", "count"},
      {"analyzer.sps_combined", "count"},
      {"analyzer.sps_suppressed", "count"},
      {"exec.ss.busy_ns_per_tuple", "ns/tuple"},
      {"exec.ss.sp_maint_ns_per_sp", "ns/sp"},
      {"exec.ss.policy_installs", "count"},
      {"exec.ss.pass_ratio", "ratio"},
      {"exec.select.busy_ns_per_tuple", "ns/tuple"},
      {"exec.project.busy_ns_per_tuple", "ns/tuple"},
      {"exec.sajoin.probe_ns_per_tuple", "ns/tuple"},
      {"exec.sajoin.window_maint_ns_per_tuple", "ns/tuple"},
      {"exec.sajoin.sp_maint_ns_per_tuple", "ns/tuple"},
      {"exec.sajoin.results_per_tuple", "ratio"},
      {"exec.sajoin.peak_state_bytes", "bytes"},
      {"exec.avg_batch", "elements"},
      {"net.client_push.us", "us"},
      {"net.client_run.us", "us"},
      {"net.result_wait.us", "us"},
      {"net.credit_stalls", "count"},
      {"net.result_frames_per_1k", "frames/1k"},
      {"net.credit_frames_per_1k", "frames/1k"},
      {"wire.encode_push.ns_per_tuple", "ns/tuple"},
      {"wire.decode_push.ns_per_tuple", "ns/tuple"},
      {"wire.encode_result.ns_per_tuple", "ns/tuple"},
      {"wire.push_bytes_per_tuple", "bytes/tuple"},
      {"gen.lag_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.dropped_spans", "count"},
      {"error_ratio", "ratio"},
      {"result_mismatch_ratio", "ratio"},
  };
  return kMetrics;
}

std::string ReportJson(const Report& report, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = report.values.find(m.name);
    if (it == report.values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s has no finite value\n", m.name);
      return "";
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double WeightedPercentile(std::vector<std::pair<double, int64_t>> samples,
                          double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  int64_t total = 0;
  for (const auto& s : samples) total += s.second;
  const double target = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (const auto& s : samples) {
    cumulative += s.second;
    if (static_cast<double>(cumulative) >= target) return s.first;
  }
  return samples.back().first;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace spbench
