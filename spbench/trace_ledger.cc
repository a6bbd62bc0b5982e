#include "trace_ledger.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace spbench {

using spstream::TraceEvent;
using spstream::Tracer;

namespace {

int64_t End(const TraceEvent& e) { return e.start_nanos + e.dur_nanos; }

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t Covered(std::vector<std::pair<int64_t, int64_t>>* intervals,
                int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : *intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

TraceLedger::~TraceLedger() {
  if (active_) Tracer::Global().Disable();
}

spstream::TraceId TraceLedger::BeginEpoch() {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  active_ = true;
  window_lo_ = tracer.NextSpanId();
  return tracer.NewTraceId();
}

void TraceLedger::BeforeBulkCall(int64_t tuples) {
  if (tuples >= static_cast<int64_t>(Tracer::kRingSlots)) Drain();
}

void TraceLedger::EndEpoch() {
  Tracer& tracer = Tracer::Global();
  CloseWindow(tracer.NextSpanId());
  tracer.Disable();
  active_ = false;
  if (expected_ > static_cast<int64_t>(Tracer::kRingSlots / 2)) Drain();
}

void TraceLedger::Finish() {
  if (active_) EndEpoch();
  if (!windows_.empty()) Drain();
}

void TraceLedger::CloseWindow(uint64_t probe) {
  windows_.push_back({window_lo_, probe});
  expected_ += static_cast<int64_t>(probe - window_lo_ - 1);
}

void TraceLedger::Drain() {
  Tracer& tracer = Tracer::Global();
  if (active_) CloseWindow(tracer.NextSpanId());
  std::vector<TraceEvent> events = tracer.Snapshot();
  tracer.Clear();
  // Keep only events recorded inside the traced windows: the flight ring
  // also holds lifecycle marks from untraced epochs.
  std::vector<TraceEvent> found;
  for (TraceEvent& e : events) {
    for (const auto& [lo, hi] : windows_) {
      if (e.span_id > lo && e.span_id < hi) {
        found.push_back(std::move(e));
        break;
      }
    }
  }
  found_ += static_cast<int64_t>(found.size());
  if (active_) {
    // Mid-epoch: spans still open (the epoch's root) hold ids from the
    // closed windows and are recorded later, so the windows stay.
    window_lo_ = tracer.NextSpanId();
  } else {
    dropped_ += expected_ - found_;
    windows_.clear();
    expected_ = 0;
    found_ = 0;
  }
  Account(std::move(found));
}

void TraceLedger::Account(std::vector<TraceEvent> events) {
  for (TraceEvent& e : events) pending_.push_back(std::move(e));
  std::sort(pending_.begin(), pending_.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_nanos < b.start_nanos;
            });
  // Every span of an epoch ends before the epoch's root span does, so all
  // pending events up to the last drained root are complete.
  int64_t settled_until = -1;
  for (const TraceEvent& e : pending_) {
    if (!e.is_instant() && e.name == kEpochSpan) {
      settled_until = std::max(settled_until, End(e));
    }
  }
  if (settled_until < 0) return;

  std::unordered_map<spstream::SpanId,
                     std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const TraceEvent& e : pending_) {
    if (e.is_instant() || End(e) > settled_until) continue;
    children[e.parent_id].push_back({e.start_nanos, End(e)});
  }
  std::vector<TraceEvent> rest;
  for (TraceEvent& e : pending_) {
    if (!e.is_instant() && End(e) > settled_until) {
      rest.push_back(std::move(e));
      continue;
    }
    SpanTotals& t = totals_[e.name];
    ++t.count;
    t.arg1 += e.arg1;
    if (!e.is_instant()) {
      int64_t self = e.dur_nanos;
      auto it = children.find(e.span_id);
      if (it != children.end()) {
        self -= Covered(&it->second, e.start_nanos, End(e));
      }
      t.total_ns += e.dur_nanos;
      t.self_ns += self;
      if (e.name == kEpochSpan) {
        ++epochs_seen_;
        root_total_ns_ += e.dur_nanos;
        root_self_ns_ += self;
      }
    }
    if (epochs_seen_ <= static_cast<int64_t>(kRetainedEpochs)) {
      retained_.push_back(std::move(e));
    }
  }
  pending_ = std::move(rest);
}

double TraceLedger::coverage() const {
  if (root_total_ns_ <= 0) return 0.0;
  return static_cast<double>(root_total_ns_ - root_self_ns_) /
         static_cast<double>(root_total_ns_);
}

bool TraceLedger::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  out << spstream::ChromeTraceJson(retained_) << "\n";
  return static_cast<bool>(out);
}

}  // namespace spbench
