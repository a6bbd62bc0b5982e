#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>

#include "common/trace.h"
#include "engine/engine.h"
#include "engine/engine_service.h"
#include "exec/ss_operator.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "reference.h"
#include "trace_ledger.h"

namespace spbench {

using spstream::NowNanos;
using spstream::Status;
using spstream::StreamElement;
using spstream::TraceCat;
using spstream::TraceId;
using spstream::TraceSpan;

namespace {

/// Set-up is sampled once per pass, and each measured epoch is observed
/// once per pass; their median and minimum need a few passes.
constexpr int kMinPasses = 5;
/// The open loop waits this long for a tick's results before it counts the
/// poll as failed.
constexpr int kResultTimeoutMs = 2000;

struct WorkloadDef {
  std::string name;
  /// Percentile reported as latency_tail_ms: the highest one that leaves at
  /// least ten samples beyond it in a pass (samples are data tuples).
  double tail_quantile;
  /// One measured epoch in this many, counted across passes, is traced in a
  /// --trace 1 run.
  int trace_every;
  /// Operator kinds every query's plan must show in SnapshotMetrics().
  std::vector<std::string> operators;
  bool over_wire;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kDefs = {
      {"join_window", 0.99, 2, {"push", "SS", "sajoin", "project", "sink"},
       false},
      {"policy_churn", 0.99, 4, {"push", "SS", "select", "project", "sink"},
       false},
      {"wire_feed", 0.99, 16, {"push", "SS", "select", "project", "sink"},
       true},
  };
  return kDefs;
}

// ---- operator counters ---------------------------------------------------

/// Flow counters of the operators of one kind, summed over queries.
struct OpTotals {
  int64_t busy_ns = 0;
  int64_t join_ns = 0;
  int64_t sp_maint_ns = 0;
  int64_t tuple_maint_ns = 0;
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  int64_t sps_in = 0;
  int64_t policy_installs = 0;
  int64_t batches = 0;
  int64_t batch_elements = 0;
  int64_t peak_state_bytes = 0;

  void Add(const spstream::OperatorMetrics& m, int sign) {
    busy_ns += sign * m.total_nanos;
    join_ns += sign * m.join_nanos;
    sp_maint_ns += sign * m.sp_maintenance_nanos;
    tuple_maint_ns += sign * m.tuple_maintenance_nanos;
    tuples_in += sign * m.tuples_in;
    tuples_out += sign * m.tuples_out;
    sps_in += sign * m.sps_in;
    policy_installs += sign * m.policy_installs;
    batches += sign * m.batches_in;
    batch_elements += sign * m.batch_elements_in;
    peak_state_bytes = std::max(peak_state_bytes, m.peak_state_bytes);
  }
  void Add(const OpTotals& o) {
    busy_ns += o.busy_ns;
    join_ns += o.join_ns;
    sp_maint_ns += o.sp_maint_ns;
    tuple_maint_ns += o.tuple_maint_ns;
    tuples_in += o.tuples_in;
    tuples_out += o.tuples_out;
    sps_in += o.sps_in;
    policy_installs += o.policy_installs;
    batches += o.batches;
    batch_elements += o.batch_elements;
    peak_state_bytes = std::max(peak_state_bytes, o.peak_state_bytes);
  }
};
using OpMap = std::map<std::string, OpTotals>;

/// Operator kind of a label: its leading letters ("SS#1" -> "SS",
/// "sajoin_index" -> "sajoin", "push:A" -> "push").
std::string OperatorKind(const std::string& label) {
  size_t n = 0;
  while (n < label.size() &&
         std::isalpha(static_cast<unsigned char>(label[n]))) {
    ++n;
  }
  return label.substr(0, n);
}

/// Sum a snapshot's operators by kind (sign -1 subtracts, for deltas).
/// Fails, naming what it saw, when a query lacks an expected kind.
bool ReadOperators(const spstream::MetricsSnapshot& snap,
                   const std::vector<std::string>& expected, int sign,
                   OpMap* out, std::string* error) {
  for (const spstream::QueryMetricsSnapshot& q : snap.queries) {
    std::map<std::string, bool> seen;
    for (const auto& [label, m] : q.operators) {
      seen[OperatorKind(label)] = true;
      (*out)[OperatorKind(label)].Add(m, sign);
    }
    for (const std::string& kind : expected) {
      if (seen.count(kind) > 0) continue;
      *error = "query " + q.query + " has no '" + kind + "' operator; labels:";
      for (const auto& [label, m] : q.operators) *error += " " + label;
      return false;
    }
  }
  if (snap.queries.empty()) {
    *error = "the metrics snapshot lists no query";
    return false;
  }
  return true;
}

int64_t Counter(const spstream::MetricsSnapshot& snap,
                const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t ChunkTuples(const InputSpec& in, const Chunk& c) {
  int64_t n = 0;
  const StreamSpec& s = in.streams[static_cast<size_t>(c.stream)];
  for (size_t i = c.begin; i < c.end; ++i) n += s.elements[i].is_sp ? 0 : 1;
  return n;
}

std::vector<std::string> RoleNames(const InputSpec& in,
                                   const std::vector<int>& ids) {
  std::vector<std::string> names;
  for (int id : ids) names.push_back(in.roles[static_cast<size_t>(id)]);
  return names;
}

/// Spin until `due` (steady-clock nanos). The open loop's send times do
/// not inherit the scheduler's wake-up slack, and the pass's CPU never halts
/// between ticks: a halted vCPU hands its core to the host, and the next
/// tick then starts from caches a neighbour's work evicted (a tick's median
/// round trip measured 0.10-0.12 ms after sleeping, 0.07-0.08 ms after
/// spinning). The server threads share the CPU and preempt the spin when
/// they wake.
void WaitUntil(int64_t due) {
  while (NowNanos() < due) {
  }
}

// ---- the timed phase -------------------------------------------------------

/// Pins the process to one CPU of its allowed set at each Next(), moving on
/// to the next CPU every time. Called at the start of each pass, before the
/// pass creates any thread, so all of a pass's threads share one CPU. On
/// the shared host one vCPU at a time can run at ~0.6x speed for a minute or
/// more (its physical core is busy with a neighbour's work), and the
/// scheduler leaves a single busy thread where it is; rotating spreads a
/// run's passes over every vCPU. One CPU per pass also keeps wire_feed's
/// hand-offs between the clients, the event loop and the engine thread off
/// inter-processor wake-ups, which the hypervisor delays by host load.
class CpuRotor {
 public:
  CpuRotor() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// The measured epochs of a run, each kept at its fastest observation.
/// Every pass feeds the same epochs, so a run observes each measured epoch
/// once per pass. Co-tenants of the shared host slow the program by up to
/// ~1.7x, in bursts from milliseconds to minutes (NOTES.md), and that noise
/// only ever adds time: an epoch's observations have a floor, its quiet
/// cost, and a long tail above it. The run's figures describe one pass made
/// of every epoch's fastest observation.
class EpochProfile {
 public:
  explicit EpochProfile(double tail_quantile) : tail_quantile_(tail_quantile) {}

  /// One observation of measured epoch `index`: `cost_ns` ranks it (its
  /// wall time; in the open loop, from its due time to its delivery),
  /// `work` counts towards throughput and `latency` holds (ms, weight)
  /// samples.
  void Add(size_t index, int64_t cost_ns, int64_t work,
           std::vector<std::pair<double, int64_t>> latency) {
    if (index >= best_.size()) best_.resize(index + 1);
    Observation& b = best_[index];
    if (b.seen && b.cost_ns <= cost_ns) return;
    b = Observation{true, cost_ns, work, std::move(latency)};
  }

  /// Work per second over the kept observations.
  double Throughput() const {
    int64_t work = 0, ns = 0;
    for (const Observation& b : best_) {
      work += b.work;
      ns += b.cost_ns;
    }
    return Ratio(static_cast<double>(work), static_cast<double>(ns) / 1e9);
  }
  double LatencyP50() const { return WeightedPercentile(Samples(), 0.5); }
  double LatencyTail() const {
    return WeightedPercentile(Samples(), tail_quantile_);
  }

 private:
  struct Observation {
    bool seen = false;
    int64_t cost_ns = 0;
    int64_t work = 0;
    std::vector<std::pair<double, int64_t>> latency;
  };

  std::vector<std::pair<double, int64_t>> Samples() const {
    std::vector<std::pair<double, int64_t>> all;
    for (const Observation& b : best_) {
      all.insert(all.end(), b.latency.begin(), b.latency.end());
    }
    return all;
  }

  const double tail_quantile_;
  std::vector<Observation> best_;  // by measured index
};

// ---- the run ---------------------------------------------------------------

class WorkloadRun {
 public:
  WorkloadRun(const RunOptions& options, const WorkloadDef& def)
      : opt_(options),
        def_(def),
        in_(MakeInput(options.workload, options.seed)),
        profile_(def.tail_quantile) {
    for (const QuerySpec& q : in_.queries) expect_.push_back(Expect(in_, q));
    exact_["net.credit_stalls"] = 0;  // set per pass over the wire
    if (def_.over_wire) {
      expected_rows_ = ExpectedRowsPerEpoch(in_, in_.queries[0], in_.measured);
      warmup_rows_ = ExpectedRowsPerEpoch(in_, in_.queries[0], in_.warmup);
    }
  }

  int Execute(Report* report);

 private:
  struct EpochOutcome {
    int64_t wall_ns = 0;
    std::vector<std::vector<spstream::Tuple>> rows;  // per query
  };

  bool Ok(const Status& st, const char* what) {
    ++attempted_;
    if (st.ok()) return true;
    if (failed_++ < 5) {
      std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    }
    return false;
  }

  bool Fatal(const std::string& why) {
    if (fatal_.empty()) fatal_ = why;
    return false;
  }

  /// Leak gate, row by row; false (fatal) on the first denied row.
  bool Deliver(size_t query, const std::vector<spstream::Tuple>& rows) {
    for (const spstream::Tuple& t : rows) {
      const std::string leak = checkers_[query].Add(t.values);
      if (!leak.empty()) {
        return Fatal("LEAK in " + opt_.workload + " query " +
                     std::to_string(query) + ": " + leak);
      }
    }
    const size_t keep = std::min(rows.size(), 4096 - sample_rows_.size());
    sample_rows_.insert(sample_rows_.end(), rows.begin(),
                        rows.begin() + static_cast<std::ptrdiff_t>(keep));
    return true;
  }

  void BeginPass() {
    checkers_.clear();
    for (const Expectation& e : expect_) checkers_.emplace_back(&e);
  }
  void EndPass() {
    CheckCounts pass;
    for (ResultChecker& c : checkers_) pass.Add(c.Finish());
    if (passes_ == 0) {
      first_pass_ = pass;
    } else if (pass.delivered != first_pass_.delivered ||
               pass.matched != first_pass_.matched ||
               pass.mismatched != first_pass_.mismatched) {
      deterministic_ = false;
    }
    checked_.Add(pass);
    ++passes_;
  }

  /// Add (sign 1) or subtract (sign -1) a snapshot's operator counters:
  /// bracketing a traced epoch leaves that epoch's deltas.
  bool Operators(const spstream::MetricsSnapshot& snap, int sign) {
    std::string error;
    if (!ReadOperators(snap, def_.operators, sign, &traced_ops_, &error)) {
      return Fatal(error);
    }
    return true;
  }

  /// Exact per-pass counts, read once the pass's last epoch ran.
  bool ReadPassCounters(spstream::SpStreamEngine* engine, int64_t pass_tuples) {
    const spstream::MetricsSnapshot snap = engine->SnapshotMetrics();
    OpMap ops;
    std::string error;
    if (!ReadOperators(snap, def_.operators, 1, &ops, &error)) {
      return Fatal(error);
    }
    int64_t in = 0, out = 0, combined = 0, suppressed = 0;
    for (const StreamSpec& s : in_.streams) {
      if (const spstream::SpAnalyzerStats* a = engine->analyzer_stats(s.name)) {
        in += a->sps_in;
        out += a->sps_out;
        combined += a->sps_combined;
        suppressed += a->sps_suppressed;
      }
    }
    exact_["analyzer.sps_in"] = static_cast<double>(in);
    exact_["analyzer.sps_out"] = static_cast<double>(out);
    exact_["analyzer.sps_combined"] = static_cast<double>(combined);
    exact_["analyzer.sps_suppressed"] = static_cast<double>(suppressed);
    exact_["exec.ss.policy_installs"] =
        static_cast<double>(ops["SS"].policy_installs);
    exact_["exec.sajoin.peak_state_bytes"] = std::max(
        exact_["exec.sajoin.peak_state_bytes"],
        static_cast<double>(ops["sajoin"].peak_state_bytes));
    exact_["engine.tuples_shed"] =
        static_cast<double>(Counter(snap, "engine.tuples_shed"));
    exact_["engine.run_epochs"] =
        static_cast<double>(Counter(snap, "engine.run_epochs"));
    auto h = snap.histograms.find("engine.run");
    exact_["engine.epoch_p50_us"] =
        h == snap.histograms.end() ? 0.0
                                   : static_cast<double>(h->second.p50) / 1e3;
    exact_["net.result_frames_per_1k"] =
        1000.0 * Ratio(static_cast<double>(Counter(snap, "net.result_frames")),
                       static_cast<double>(pass_tuples));
    exact_["net.credit_frames_per_1k"] =
        1000.0 * Ratio(static_cast<double>(Counter(snap, "net.credit_frames")),
                       static_cast<double>(pass_tuples));
    return true;
  }

  int64_t PassTuples() const {
    int64_t n = 0;
    for (const Epoch& e : in_.warmup) n += e.data_tuples;
    for (const Epoch& e : in_.measured) n += e.data_tuples;
    return n;
  }

  /// Whether the next measured epoch is traced.
  bool TraceNext() {
    return opt_.trace && measured_epochs_++ % def_.trace_every == 0;
  }

  void Timed(bool traced, int64_t ns, int64_t tuples) {
    (traced ? traced_ns_ : untraced_ns_) += ns;
    (traced ? traced_tuples_ : untraced_tuples_) += tuples;
  }

  bool InProcessPass();
  /// Runs one epoch; `measured` is its index in in_.measured, or -1 for a
  /// warm-up epoch.
  EpochOutcome InProcessEpoch(spstream::SpStreamEngine* engine,
                              const std::vector<spstream::QueryId>& ids,
                              const Epoch& epoch, bool traced, int measured);
  bool WirePass();
  void StandaloneTimings();
  void Fill(Report* report);

  const RunOptions& opt_;
  const WorkloadDef& def_;
  const InputSpec in_;
  std::vector<Expectation> expect_;
  std::vector<int64_t> expected_rows_;  // wire_feed: per measured tick
  std::vector<int64_t> warmup_rows_;    // wire_feed: per warm-up tick

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string fatal_;

  std::vector<ResultChecker> checkers_;
  CheckCounts checked_;
  CheckCounts first_pass_;
  bool deterministic_ = true;
  int passes_ = 0;
  std::vector<spstream::Tuple> sample_rows_;

  std::vector<double> setup_s_;
  CpuRotor rotor_;
  EpochProfile profile_;
  std::vector<double> pass_tps_;  // wire_feed: delivered rate of each pass
  int64_t measured_epochs_ = 0;   // run so far, over all passes
  int64_t timed_ns_ = 0;          // length of the timed phase so far
  std::vector<std::pair<double, int64_t>> lag_ms_;  // (ms, ticks)
  int64_t traced_ns_ = 0, traced_tuples_ = 0;
  int64_t untraced_ns_ = 0, untraced_tuples_ = 0;

  TraceLedger ledger_;
  OpMap traced_ops_;
  std::map<std::string, double> exact_;
  std::map<std::string, double> standalone_;
};

WorkloadRun::EpochOutcome WorkloadRun::InProcessEpoch(
    spstream::SpStreamEngine* engine, const std::vector<spstream::QueryId>& ids,
    const Epoch& epoch, bool traced, int measured) {
  std::vector<std::vector<StreamElement>> batches;
  for (const Chunk& c : epoch.chunks) batches.push_back(ToElements(in_, c));
  std::vector<int64_t> pushed_at(epoch.chunks.size());
  EpochOutcome out;
  out.rows.resize(ids.size());
  const TraceId trace = traced ? ledger_.BeginEpoch() : 0;
  const int64_t start = NowNanos();
  {
    TraceSpan root(TraceCat::kEngine, TraceLedger::kEpochSpan, trace,
                   epoch.data_tuples);
    for (size_t c = 0; c < epoch.chunks.size(); ++c) {
      const std::string& stream =
          in_.streams[static_cast<size_t>(epoch.chunks[c].stream)].name;
      pushed_at[c] = NowNanos();
      TraceSpan span(TraceCat::kEngine, "bench.push", trace,
                     static_cast<int64_t>(batches[c].size()));
      Ok(engine->Push(stream, std::move(batches[c])), "Push");
    }
    if (traced) ledger_.BeforeBulkCall(epoch.data_tuples);
    {
      TraceSpan span(TraceCat::kEngine, "bench.run", trace, epoch.data_tuples);
      Ok(engine->Run(), "Run");
    }
    for (size_t q = 0; q < ids.size(); ++q) {
      TraceSpan span(TraceCat::kEngine, "bench.take", trace);
      spstream::Result<std::vector<spstream::Tuple>> rows =
          engine->TakeResults(ids[q]);
      if (Ok(rows.status(), "TakeResults")) {
        out.rows[q] = std::move(rows).value();
      }
      span.set_args(static_cast<int64_t>(out.rows[q].size()), 0);
    }
  }
  const int64_t end = NowNanos();
  if (traced) ledger_.EndEpoch();
  out.wall_ns = end - start;
  if (measured >= 0) {
    std::vector<std::pair<double, int64_t>> latency;
    for (size_t c = 0; c < epoch.chunks.size(); ++c) {
      latency.push_back({static_cast<double>(end - pushed_at[c]) / 1e6,
                         ChunkTuples(in_, epoch.chunks[c])});
    }
    profile_.Add(static_cast<size_t>(measured), out.wall_ns,
                 epoch.data_tuples, std::move(latency));
    timed_ns_ += out.wall_ns;
  }
  return out;
}

bool WorkloadRun::InProcessPass() {
  rotor_.Next();
  const int64_t t0 = NowNanos();
  auto engine = std::make_unique<spstream::SpStreamEngine>();
  for (size_t r = 0; r < in_.roles.size(); ++r) {
    if (engine->RegisterRole(in_.roles[r]) != r) {
      return Fatal("role ids do not follow registration order");
    }
  }
  for (const StreamSpec& s : in_.streams) {
    Ok(engine->RegisterStream(SchemaOf(s)).status(), "RegisterStream");
  }
  std::vector<spstream::QueryId> ids;
  for (const QuerySpec& q : in_.queries) {
    Ok(engine->RegisterSubject(q.subject, RoleNames(in_, q.subject_roles)),
       "RegisterSubject");
    spstream::Result<spstream::QueryId> id =
        engine->RegisterQuery(q.subject, q.sql);
    if (!Ok(id.status(), "RegisterQuery")) return Fatal("query rejected");
    ids.push_back(*id);
  }
  int64_t setup_ns = NowNanos() - t0;
  BeginPass();
  for (const Epoch& epoch : in_.warmup) {
    EpochOutcome e = InProcessEpoch(engine.get(), ids, epoch, false, -1);
    setup_ns += e.wall_ns;
    for (size_t q = 0; q < ids.size(); ++q) {
      if (!Deliver(q, e.rows[q])) return false;
    }
  }
  setup_s_.push_back(static_cast<double>(setup_ns) / 1e9);
  for (size_t i = 0; i < in_.measured.size(); ++i) {
    const Epoch& epoch = in_.measured[i];
    const bool traced = TraceNext();
    if (traced && !Operators(engine->SnapshotMetrics(), -1)) return false;
    EpochOutcome e = InProcessEpoch(engine.get(), ids, epoch, traced,
                                    static_cast<int>(i));
    if (traced && !Operators(engine->SnapshotMetrics(), 1)) return false;
    Timed(traced, e.wall_ns, epoch.data_tuples);
    for (size_t q = 0; q < ids.size(); ++q) {
      if (!Deliver(q, e.rows[q])) return false;
    }
  }
  if (!ReadPassCounters(engine.get(), PassTuples())) return false;
  EndPass();
  return true;
}

bool WorkloadRun::WirePass() {
  rotor_.Next();
  const int64_t t0 = NowNanos();
  auto service = std::make_unique<spstream::EngineService>();
  spstream::StreamServerOptions server_options;
  server_options.net_loops = 1;
  auto server =
      std::make_unique<spstream::StreamServer>(service.get(), server_options);
  if (!Ok(server->Start(0), "StreamServer::Start")) return Fatal("no server");
  spstream::StreamClient producer, subscriber;
  if (!Ok(producer.Connect("127.0.0.1", server->port(), "spbench-producer"),
          "Connect")) {
    return Fatal("producer cannot connect");
  }
  for (size_t r = 0; r < in_.roles.size(); ++r) {
    spstream::Result<spstream::RoleId> id = producer.RegisterRole(in_.roles[r]);
    if (!Ok(id.status(), "RegisterRole") || *id != r) {
      return Fatal("role ids do not follow registration order");
    }
  }
  const StreamSpec& stream = in_.streams[0];
  const QuerySpec& query = in_.queries[0];
  Ok(producer.RegisterStream(SchemaOf(stream)).status(), "RegisterStream");
  Ok(producer.RegisterSubject(query.subject,
                              RoleNames(in_, query.subject_roles)),
     "RegisterSubject");
  spstream::Result<uint64_t> qid =
      producer.RegisterQuery(query.subject, query.sql);
  if (!Ok(qid.status(), "RegisterQuery")) return Fatal("query rejected");
  if (!Ok(subscriber.Connect("127.0.0.1", server->port(), "spbench-subscriber"),
          "Connect") ||
      !Ok(subscriber.Subscribe(*qid), "Subscribe")) {
    return Fatal("subscriber cannot attach");
  }
  BeginPass();

  // One tick: push the batch, RUN, and wait until the tick's rows are in
  // the subscriber's hands. Returns the completion time.
  auto tick = [&](std::vector<StreamElement> elements, int64_t want,
                  TraceId trace, std::vector<spstream::Tuple>* rows) {
    {
      TraceSpan root(TraceCat::kNet, TraceLedger::kEpochSpan, trace,
                     static_cast<int64_t>(elements.size()));
      {
        TraceSpan span(TraceCat::kNet, "bench.client_push", trace,
                       static_cast<int64_t>(elements.size()));
        Ok(producer.Push(stream.name, std::move(elements)),
           "StreamClient::Push");
      }
      {
        TraceSpan span(TraceCat::kNet, "bench.client_run", trace);
        Ok(producer.Run(), "StreamClient::Run");
      }
      TraceSpan span(TraceCat::kNet, "bench.result_wait", trace, want);
      if (want > 0) {
        Ok(subscriber.PollResults(*qid, static_cast<size_t>(want),
                                  kResultTimeoutMs),
           "StreamClient::PollResults");
      }
      *rows = subscriber.TakeResults(*qid);
    }
    return NowNanos();
  };

  auto snapshot = [&] {
    return service->WithEngine(
        [](spstream::SpStreamEngine* e) { return e->SnapshotMetrics(); });
  };

  int64_t setup_ns = NowNanos() - t0;
  std::vector<spstream::Tuple> rows;
  for (size_t i = 0; i < in_.warmup.size(); ++i) {
    std::vector<StreamElement> elements =
        ToElements(in_, in_.warmup[i].chunks[0]);
    const int64_t start = NowNanos();
    setup_ns += tick(std::move(elements), warmup_rows_[i], 0, &rows) - start;
    if (!Deliver(0, rows)) return false;
  }
  setup_s_.push_back(static_cast<double>(setup_ns) / 1e9);

  std::vector<std::vector<StreamElement>> batches;
  for (const Epoch& e : in_.measured) {
    batches.push_back(ToElements(in_, e.chunks[0]));
  }
  const int64_t period = 1000000000LL / kWireTicksPerSecond;
  // The schedule stops while a traced run does its own bookkeeping (counter
  // snapshots, ring drains), so gen.lag_p99_ms measures the program alone.
  int64_t first_due = NowNanos() + period;
  int64_t done = first_due;
  for (size_t i = 0; i < in_.measured.size(); ++i) {
    const bool traced = TraceNext();
    const int64_t tuples = in_.measured[i].data_tuples;
    if (traced) {
      const int64_t paused = NowNanos();
      if (!Operators(snapshot(), -1)) return false;
      first_due += NowNanos() - paused;
    }
    const int64_t due = first_due + static_cast<int64_t>(i) * period;
    WaitUntil(due);
    const int64_t sent = NowNanos();
    const TraceId trace = traced ? ledger_.BeginEpoch() : 0;
    done = tick(std::move(batches[i]), expected_rows_[i], trace, &rows);
    if (traced) {
      const int64_t paused = NowNanos();
      ledger_.EndEpoch();
      if (!Operators(snapshot(), 1)) return false;
      first_due += NowNanos() - paused;
    }
    lag_ms_.push_back({static_cast<double>(sent - due) / 1e6, 1});
    // Open loop: latency counts from the due time.
    profile_.Add(i, done - due, tuples,
                 {{static_cast<double>(done - due) / 1e6, tuples}});
    Timed(traced, done - sent, tuples);
    if (!Deliver(0, rows)) return false;
  }
  // The pass's rate: data tuples whose results reached the subscriber, from
  // the first due time to the last delivery.
  int64_t pass_tuples = 0;
  for (const Epoch& e : in_.measured) pass_tuples += e.data_tuples;
  pass_tps_.push_back(Ratio(static_cast<double>(pass_tuples),
                            static_cast<double>(done - first_due) / 1e9));
  timed_ns_ += done - first_due;

  // Anything the server delivers beyond the expected rows arrives before
  // the PONG that answers a PING sent after one more RUN's ack.
  Ok(producer.Run(), "StreamClient::Run");
  Ok(subscriber.Ping(), "StreamClient::Ping");
  if (!Deliver(0, subscriber.TakeResults(*qid))) return false;
  exact_["net.credit_stalls"] = static_cast<double>(producer.credit_stalls());
  producer.Close();
  subscriber.Close();
  server->Stop();
  if (!ReadPassCounters(service->UnsafeEngine(), PassTuples())) return false;
  EndPass();
  return true;
}

void WorkloadRun::StandaloneTimings() {
  // Standalone timed calls, outside the timed phase, on this run's own
  // batches and result rows: the wire codec, and a Security Shield fed the
  // run's sps alone (OperatorMetrics do not split its sp maintenance out).
  std::vector<spstream::PushPayload> pushes;
  int64_t tuples = 0;
  for (const Epoch& e : in_.measured) {
    for (const Chunk& c : e.chunks) {
      if (tuples >= 8192) break;
      spstream::PushPayload p;
      p.stream = static_cast<spstream::StreamId>(c.stream);
      p.elements = ToElements(in_, c);
      tuples += ChunkTuples(in_, c);
      pushes.push_back(std::move(p));
    }
  }
  // Repeat `body` for at least 20 ms; returns nanoseconds per repetition.
  auto per_rep_ns = [](const auto& body) {
    int reps = 0;
    const int64_t start = NowNanos();
    do {
      body();
      ++reps;
    } while (NowNanos() - start < 20000000);
    return static_cast<double>(NowNanos() - start) / reps;
  };
  std::vector<std::string> encoded(pushes.size());
  const double enc_ns = per_rep_ns([&] {
    for (size_t i = 0; i < pushes.size(); ++i) {
      encoded[i].clear();
      spstream::EncodePush(pushes[i], &encoded[i]);
    }
  });
  bool decoded = true;
  const double dec_ns = per_rep_ns([&] {
    for (const std::string& payload : encoded) {
      decoded = decoded && spstream::DecodePush(payload).ok();
    }
  });
  if (!decoded) Fatal("a PUSH payload failed to decode");
  spstream::ResultPayload result;
  result.tuples = sample_rows_;
  std::string out;
  const double res_ns = per_rep_ns([&] {
    out.clear();
    spstream::EncodeResult(result, &out);
  });
  int64_t bytes = 0;
  for (const std::string& payload : encoded) {
    bytes += static_cast<int64_t>(payload.size());
  }
  const double t = static_cast<double>(tuples);
  standalone_["wire.encode_push.ns_per_tuple"] = Ratio(enc_ns, t);
  standalone_["wire.decode_push.ns_per_tuple"] = Ratio(dec_ns, t);
  standalone_["wire.encode_result.ns_per_tuple"] =
      Ratio(res_ns, static_cast<double>(sample_rows_.size()));
  standalone_["wire.push_bytes_per_tuple"] = Ratio(bytes, t);

  const QuerySpec& query = in_.queries[0];
  const int stream = query.join ? query.left : query.stream;
  std::vector<StreamElement> sps;
  for (const Epoch& e : in_.measured) {
    for (const Chunk& c : e.chunks) {
      if (c.stream != stream || sps.size() >= 4096) continue;
      for (StreamElement& el : ToElements(in_, c)) {
        if (el.is_sp()) sps.push_back(std::move(el));
      }
    }
  }
  spstream::RoleCatalog catalog;
  for (const std::string& role : in_.roles) catalog.RegisterRole(role);
  spstream::ExecContext ctx;
  ctx.roles = &catalog;
  spstream::SsOptions ss;
  ss.stream_name = in_.streams[static_cast<size_t>(stream)].name;
  for (const QuerySpec& q : in_.queries) {
    std::vector<spstream::RoleId> ids(q.subject_roles.begin(),
                                      q.subject_roles.end());
    ss.predicates.push_back(spstream::RoleSet::FromIds(ids));
  }
  int64_t ss_ns = 0;
  int64_t ss_sps = 0;
  while (ss_ns < 20000000 && !sps.empty()) {
    spstream::SsOperator op(&ctx, ss);
    spstream::ElementBatch batch;
    for (const StreamElement& sp : sps) batch.push_back(sp);
    const int64_t start = NowNanos();
    op.PushBatch(std::move(batch));
    ss_ns += NowNanos() - start;
    ss_sps += static_cast<int64_t>(sps.size());
  }
  standalone_["exec.ss.sp_maint_ns_per_sp"] = Ratio(ss_ns, ss_sps);
}

void WorkloadRun::Fill(Report* report) {
  report->attempted = attempted_;
  report->failed = failed_;
  report->correct = deterministic_;
  std::map<std::string, double>& v = report->values;
  // End to end.
  v["throughput_tps"] =
      def_.over_wire ? Median(pass_tps_) : profile_.Throughput();
  v["latency_p50_ms"] = profile_.LatencyP50();
  v["latency_tail_ms"] = profile_.LatencyTail();
  v["setup_s"] = Median(setup_s_);
  v["peak_rss_mb"] = PeakRssMb();
  v["result_match_ratio"] = Ratio(static_cast<double>(checked_.matched),
                                  static_cast<double>(checked_.union_size));
  v["error_ratio"] = Ratio(static_cast<double>(failed_),
                           static_cast<double>(attempted_));
  v["result_mismatch_ratio"] = Ratio(static_cast<double>(checked_.mismatched),
                                     static_cast<double>(checked_.reference));
  if (!opt_.trace) return;

  // Per layer, from the traced epochs' spans and operator-counter deltas.
  for (const auto& [name, value] : exact_) v[name] = value;
  for (const auto& [name, value] : standalone_) v[name] = value;
  const std::map<std::string, SpanTotals>& spans = ledger_.totals();
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const double traced_tuples = static_cast<double>(traced_tuples_);
  // In process the benchmark times the engine calls itself; over the wire
  // the server makes them, and its own server.push / engine.run spans are
  // read instead.
  const SpanTotals push = span(def_.over_wire ? "server.push" : "bench.push");
  const SpanTotals run = span(def_.over_wire ? "engine.run" : "bench.run");
  const SpanTotals take = span("bench.take");
  v["engine.push.ns_per_elem"] = Ratio(push.total_ns, push.arg1);
  v["engine.run.ns_per_tuple"] = Ratio(run.total_ns, traced_tuples);
  v["engine.take.ns_per_result"] = Ratio(take.total_ns, take.arg1);
  int64_t busy = 0;
  for (const auto& [kind, ops] : traced_ops_) busy += ops.busy_ns;
  v["engine.unattributed_ns_per_tuple"] =
      Ratio(static_cast<double>(run.total_ns - busy), traced_tuples);
  OpTotals all;
  for (const auto& [kind, ops] : traced_ops_) all.Add(ops);
  const OpTotals ss = traced_ops_["SS"];
  const OpTotals sel = traced_ops_["select"];
  const OpTotals proj = traced_ops_["project"];
  const OpTotals join = traced_ops_["sajoin"];
  v["exec.ss.busy_ns_per_tuple"] = Ratio(ss.busy_ns, ss.tuples_in);
  v["exec.ss.pass_ratio"] = Ratio(ss.tuples_out, ss.tuples_in);
  v["exec.select.busy_ns_per_tuple"] = Ratio(sel.busy_ns, sel.tuples_in);
  v["exec.project.busy_ns_per_tuple"] = Ratio(proj.busy_ns, proj.tuples_in);
  v["exec.sajoin.probe_ns_per_tuple"] = Ratio(join.join_ns, join.tuples_in);
  v["exec.sajoin.window_maint_ns_per_tuple"] =
      Ratio(join.tuple_maint_ns, join.tuples_in);
  v["exec.sajoin.sp_maint_ns_per_tuple"] =
      Ratio(join.sp_maint_ns, join.tuples_in);
  v["exec.sajoin.results_per_tuple"] = Ratio(join.tuples_out, join.tuples_in);
  v["exec.avg_batch"] = Ratio(all.batch_elements, all.batches);
  auto per_call_us = [&](const char* name) {
    const SpanTotals t = span(name);
    return Ratio(static_cast<double>(t.total_ns) / 1e3, t.count);
  };
  v["net.client_push.us"] = per_call_us("bench.client_push");
  v["net.client_run.us"] = per_call_us("bench.client_run");
  v["net.result_wait.us"] = per_call_us("bench.result_wait");
  v["gen.lag_p99_ms"] = WeightedPercentile(lag_ms_, 0.99);
  v["trace.coverage"] = ledger_.coverage();
  v["trace.overhead_ratio"] =
      Ratio(Ratio(traced_tuples, static_cast<double>(traced_ns_)),
            Ratio(static_cast<double>(untraced_tuples_),
                  static_cast<double>(untraced_ns_)));
  v["trace.dropped_spans"] = static_cast<double>(ledger_.dropped());
}

int WorkloadRun::Execute(Report* report) {
  const double input_rss_mb = PeakRssMb();
  do {
    const bool ok = def_.over_wire ? WirePass() : InProcessPass();
    if (!ok) {
      std::fprintf(stderr, "%s\n", fatal_.c_str());
      return 3;
    }
  } while (passes_ < kMinPasses ||
           static_cast<double>(timed_ns_) < opt_.seconds * 1e9);
  if (opt_.trace) {
    ledger_.Finish();
    StandaloneTimings();
    if (!fatal_.empty()) {
      std::fprintf(stderr, "%s\n", fatal_.c_str());
      return 3;
    }
    if (!opt_.trace_out.empty() && !ledger_.WriteChromeJson(opt_.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt_.trace_out.c_str());
    }
  }
  Fill(report);
  std::fprintf(stderr,
               "%s seed=%llu passes=%d input_rss_mb=%.1f delivered=%lld "
               "reference=%lld mismatched=%lld error_ratio=%.6g "
               "result_mismatch_ratio=%.6g\n",
               opt_.workload.c_str(),
               static_cast<unsigned long long>(opt_.seed), passes_,
               input_rss_mb,
               static_cast<long long>(checked_.delivered),
               static_cast<long long>(checked_.reference),
               static_cast<long long>(checked_.mismatched),
               report->values["error_ratio"],
               report->values["result_mismatch_ratio"]);
  if (opt_.trace) {
    for (const auto& [name, t] : ledger_.totals()) {
      std::fprintf(stderr, "  span %-28s n=%-7lld total=%.3fms self=%.3fms\n",
                   name.c_str(), static_cast<long long>(t.count),
                   static_cast<double>(t.total_ns) / 1e6,
                   static_cast<double>(t.self_ns) / 1e6);
    }
  }
  return 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const WorkloadDef& d : Workloads()) names.push_back(d.name);
    return names;
  }();
  return kNames;
}

int RunWorkload(const RunOptions& options, Report* report) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name != options.workload) continue;
    WorkloadRun run(options, def);
    return run.Execute(report);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}

}  // namespace spbench
