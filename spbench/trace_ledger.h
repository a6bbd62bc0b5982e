// The benchmark's traced run: spans recorded with the program's own Tracer
// around the benchmark's calls into each layer, one trace id per epoch.
//
// Sampled epochs switch the process-wide tracer on, so the program's own
// spans (engine.run, operators, server.push, ...) land in the same per-thread
// rings. Rings hold Tracer::kRingSlots events, so the ledger drains them
// (Snapshot + Clear) between epochs once half a ring may be used, and before
// a Run that feeds more tuples than a ring holds. Drained events stay in
// memory: self times are computed per epoch, and the first epochs are kept
// whole for the Chrome JSON written when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace spbench {

/// Aggregate of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // duration minus the time child spans cover
  int64_t arg1 = 0;     // sum of the spans' first argument
};

class TraceLedger {
 public:
  /// Root span name of every traced epoch; its children are the top-level
  /// layer spans, so its self time is the wall time no layer span covers.
  static constexpr const char* kEpochSpan = "bench.epoch";

  TraceLedger() = default;
  TraceLedger(const TraceLedger&) = delete;
  TraceLedger& operator=(const TraceLedger&) = delete;
  ~TraceLedger();

  /// Switch the tracer on for one epoch; returns the epoch's trace id.
  spstream::TraceId BeginEpoch();
  /// Called right before a Run-like call feeding `tuples` tuples: drains
  /// first when that many tuples could overrun a ring, so the spans already
  /// recorded this epoch are not the ones overwritten.
  void BeforeBulkCall(int64_t tuples);
  /// The epoch's calls are done (its root span has been recorded): switch
  /// the tracer off, draining if half a ring may be in use.
  void EndEpoch();
  /// Drain whatever is left (call once, after the last epoch).
  void Finish();

  const std::map<std::string, SpanTotals>& totals() const { return totals_; }
  /// Share of traced epoch wall time covered by top-level layer spans.
  double coverage() const;
  /// Spans whose ring slot was overwritten before a drain reached it.
  int64_t dropped() const { return dropped_; }

  /// Write the retained events as Chrome trace JSON; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  void Drain();
  /// End the current traced window at span id `probe`.
  void CloseWindow(uint64_t probe);
  /// Fold drained events into the per-name totals, epoch by epoch.
  void Account(std::vector<spstream::TraceEvent> events);

  static constexpr size_t kRetainedEpochs = 32;

  bool active_ = false;
  // Span ids are handed out process-wide in order, and every id handed out
  // while the tracer is on belongs to one recorded event. The ids strictly
  // inside each traced window, minus the events a drain finds there, are
  // the spans a ring overwrote.
  uint64_t window_lo_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> windows_;
  int64_t expected_ = 0;
  int64_t found_ = 0;
  int64_t dropped_ = 0;
  int64_t epochs_seen_ = 0;
  int64_t root_total_ns_ = 0;
  int64_t root_self_ns_ = 0;
  std::vector<spstream::TraceEvent> pending_;   // not yet under a root
  std::vector<spstream::TraceEvent> retained_;  // for the Chrome JSON
  std::map<std::string, SpanTotals> totals_;
};

}  // namespace spbench
