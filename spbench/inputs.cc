#include "inputs.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "security/security_punctuation.h"
#include "workload/moving_objects.h"

namespace spbench {

using spstream::Rng;
using spstream::Value;

namespace {

RoleMask DistinctRoles(Rng* rng, size_t count, size_t pool) {
  RoleMask m;
  while (m.count() < count) m.set(rng->NextBounded(pool));
  return m;
}

InputElement SpElement(const SpSpec& sp) {
  InputElement e;
  e.is_sp = true;
  e.sp = sp;
  return e;
}

InputElement TupleElement(Tuple t) {
  InputElement e;
  e.tuple = std::move(t);
  return e;
}

std::string RoleName(const std::string& prefix, size_t i) {
  return prefix + std::to_string(i);
}

}  // namespace

InputSpec JoinWindowInput(uint64_t seed) {
  constexpr size_t kTuplesPerRun = 20000;  // per stream
  // The warm-up Run spans one RANGE, which fills the windows as a measured
  // Run finds them, and keeps set-up short so a run holds many passes.
  constexpr size_t kWarmupTuples = 2000;  // per stream
  constexpr size_t kTuplesPerSp = 400;
  constexpr size_t kKeys = 4096;
  constexpr size_t kRoles = 16;
  constexpr size_t kRolesPerSp = 8;
  constexpr size_t kWarmupRuns = 1;
  constexpr size_t kMeasuredRuns = 1;

  InputSpec in;
  for (size_t r = 0; r < kRoles; ++r) in.roles.push_back(RoleName("role", r));
  in.streams.resize(2);
  in.streams[0] = {"A", {"k", "v"}, {false, false}, {}};
  in.streams[1] = {"B", {"k", "u"}, {false, false}, {}};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  TupleId next_tid = 0;
  Timestamp base = 0;
  for (size_t run = 0; run < kWarmupRuns + kMeasuredRuns; ++run) {
    Epoch epoch;
    const size_t tuples = run < kWarmupRuns ? kWarmupTuples : kTuplesPerRun;
    for (size_t block = 0; block < tuples / kTuplesPerSp; ++block) {
      for (int s = 0; s < 2; ++s) {
        StreamSpec& stream = in.streams[static_cast<size_t>(s)];
        Chunk chunk{s, stream.elements.size(), 0};
        // A takes the odd timestamps, B the even ones: both streams advance
        // together and each Run spans twice its tuples per stream in
        // timestamps.
        Timestamp ts = base + 1 + s +
                       static_cast<Timestamp>(2 * block * kTuplesPerSp);
        SpSpec sp;
        sp.ts = ts;
        sp.roles = DistinctRoles(&rng, kRolesPerSp, kRoles);
        sp.roles.set(0);  // the subject's role: every tuple is readable
        stream.elements.push_back(SpElement(sp));
        for (size_t i = 0; i < kTuplesPerSp; ++i) {
          const TupleId tid = next_tid++;
          const auto key = static_cast<int64_t>(rng.NextBounded(kKeys));
          // A.v is the tuple id, so each delivered A.v names its source.
          const int64_t payload =
              s == 0 ? tid : static_cast<int64_t>(rng.NextBounded(2000));
          stream.elements.push_back(TupleElement(
              Tuple(0, tid, {Value(key), Value(payload)}, ts)));
          ts += 2;
        }
        chunk.end = stream.elements.size();
        epoch.chunks.push_back(chunk);
        epoch.data_tuples += static_cast<int64_t>(kTuplesPerSp);
      }
    }
    base += static_cast<Timestamp>(2 * tuples);
    (run < kWarmupRuns ? in.warmup : in.measured).push_back(std::move(epoch));
  }
  QuerySpec q;
  q.subject = "tracker";
  q.subject_roles = {0};
  q.sql = "SELECT A.v FROM A [RANGE 4000], B [RANGE 4000] WHERE A.k = B.k";
  q.join = true;
  q.left = 0;
  q.right = 1;
  q.left_key = 0;
  q.right_key = 0;
  q.left_output = 1;
  q.window = 4000;
  in.queries.push_back(q);
  return in;
}

InputSpec PolicyChurnInput(uint64_t seed) {
  constexpr size_t kRolePool = 100;
  constexpr size_t kRolesPerPolicy = 10;
  constexpr int kTuplesPerSp = 4;
  constexpr size_t kTuplesPerRun = 256;
  constexpr size_t kWarmupRuns = 16;
  constexpr size_t kMeasuredRuns = 240;
  constexpr size_t kSubjects = 4;
  constexpr size_t kSubjectRoles = 4;
  constexpr uint64_t kNegativeEvery = 4;  // about one sp-batch in four
  constexpr size_t kNegativeRoles = 3;

  InputSpec in;
  spstream::RoleCatalog catalog;
  for (spstream::RoleId id :
       spstream::MovingObjectsGenerator::SeedRoles(&catalog, kRolePool)) {
    in.roles.push_back(catalog.Name(id));
  }
  spstream::RoadNetworkOptions road;
  road.seed = seed + 7;
  spstream::MovingObjectsOptions mo;
  mo.num_objects = 500;
  mo.num_updates = kTuplesPerRun * (kWarmupRuns + kMeasuredRuns);
  mo.tuples_per_sp = kTuplesPerSp;
  mo.roles_per_policy = kRolesPerPolicy;
  mo.role_pool = kRolePool;
  mo.seed = seed;
  mo.stream_name = "Location";
  spstream::MovingObjectsGenerator gen(
      &catalog, spstream::RoadNetwork::Grid(road), mo);
  const std::vector<spstream::StreamElement> generated = gen.Generate();

  StreamSpec stream;
  stream.name = "Location";
  stream.fields = {"object_id", "x", "y", "speed"};
  stream.field_is_double = {false, true, true, true};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  Epoch epoch;
  size_t chunk_begin = 0;
  auto close_epoch = [&](size_t end) {
    epoch.chunks.push_back(Chunk{0, chunk_begin, end});
    chunk_begin = end;
    (in.warmup.size() < kWarmupRuns ? in.warmup : in.measured)
        .push_back(std::move(epoch));
    epoch = Epoch{};
  };
  for (const spstream::StreamElement& e : generated) {
    if (e.is_tuple()) {
      stream.elements.push_back(TupleElement(e.tuple()));
      if (++epoch.data_tuples == static_cast<int64_t>(kTuplesPerRun)) {
        close_epoch(stream.elements.size());
      }
      continue;
    }
    // The generator names each block's object-id range as "lo" or
    // "[lo-hi]"; read it back into the benchmark's own form.
    const spstream::SecurityPunctuation& gsp = e.sp();
    SpSpec sp;
    sp.ts = gsp.ts();
    sp.all_tuples = false;
    long long lo = 0, hi = 0;
    const std::string& text = gsp.tuple_pattern().text();
    if (std::sscanf(text.c_str(), "[%lld-%lld]", &lo, &hi) != 2) {
      if (std::sscanf(text.c_str(), "%lld", &lo) != 1) {
        std::fprintf(stderr, "unexpected generator DDP '%s'\n", text.c_str());
        std::abort();
      }
      hi = lo;
    }
    sp.tid_lo = lo;
    sp.tid_hi = hi;
    gsp.roles().ForEach([&](spstream::RoleId id) { sp.roles.set(id); });
    stream.elements.push_back(SpElement(sp));
    if (rng.NextBounded(kNegativeEvery) == 0) {
      // A negative sp in the same batch revokes some of the granted roles:
      // negative wins.
      SpSpec neg = sp;
      neg.negative = true;
      neg.roles.reset();
      std::vector<size_t> granted;
      for (size_t r = 0; r < kMaxRoles; ++r) {
        if (sp.roles.test(r)) granted.push_back(r);
      }
      while (neg.roles.count() < kNegativeRoles) {
        neg.roles.set(granted[rng.NextBounded(granted.size())]);
      }
      stream.elements.push_back(SpElement(neg));
    }
  }
  in.streams.push_back(std::move(stream));

  // The queries are part of the workload's definition, not of its data:
  // they do not change with the seed.
  Rng query_rng(2008);
  for (size_t s = 0; s < kSubjects; ++s) {
    QuerySpec q;
    q.subject = "subject" + std::to_string(s);
    const RoleMask roles =
        DistinctRoles(&query_rng, kSubjectRoles, kRolePool);
    for (size_t r = 0; r < kRolePool; ++r) {
      if (roles.test(r)) q.subject_roles.push_back(static_cast<int>(r));
    }
    // A 1000 x 1000 region of the ~1950 x 1950 road network.
    const double x0 = 50.0 * static_cast<double>(query_rng.NextBounded(19));
    const double y0 = 50.0 * static_cast<double>(query_rng.NextBounded(19));
    q.predicates = {{1, x0, x0 + 1000.0}, {2, y0, y0 + 1000.0}};
    q.projection = {0, 1, 2};
    char sql[256];
    std::snprintf(sql, sizeof sql,
                  "SELECT object_id, x, y FROM Location WHERE x >= %.1f AND "
                  "x < %.1f AND y >= %.1f AND y < %.1f",
                  x0, x0 + 1000.0, y0, y0 + 1000.0);
    q.sql = sql;
    in.queries.push_back(q);
  }
  return in;
}

InputSpec WireFeedInput(uint64_t seed) {
  constexpr size_t kRoles = 4;
  constexpr size_t kWarmupTicks = 200;
  // A quarter second per pass: a run observes each tick about 110 times.
  constexpr size_t kMeasuredTicks = kWireTicksPerSecond / 4;
  constexpr uint64_t kDenyEvery = 4;      // sp-batches not granting role0
  constexpr uint64_t kNegativeEvery = 8;  // batches that also revoke role0

  InputSpec in;
  for (size_t r = 0; r < kRoles; ++r) in.roles.push_back(RoleName("role", r));
  StreamSpec stream;
  stream.name = "Feed";
  stream.fields = {"id", "k", "v"};
  stream.field_is_double = {false, false, false};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  Timestamp ts = 1;
  for (size_t tick = 0; tick < kWarmupTicks + kMeasuredTicks; ++tick) {
    Epoch epoch;
    Chunk chunk{0, stream.elements.size(), 0};
    SpSpec sp;
    sp.ts = ts;
    sp.roles = DistinctRoles(&rng, 1 + rng.NextBounded(2), kRoles);
    sp.roles.reset(0);
    if (rng.NextBounded(kDenyEvery) != 0) sp.roles.set(0);
    stream.elements.push_back(SpElement(sp));
    if (rng.NextBounded(kNegativeEvery) == 0) {
      SpSpec neg = sp;
      neg.negative = true;
      neg.roles.reset();
      neg.roles.set(0);
      stream.elements.push_back(SpElement(neg));
    }
    for (int i = 0; i < kWireTuplesPerTick; ++i) {
      const auto id = static_cast<TupleId>(ts);
      stream.elements.push_back(TupleElement(Tuple(
          0, id,
          {Value(static_cast<int64_t>(id)),
           Value(static_cast<int64_t>(rng.NextBounded(1000))),
           Value(static_cast<int64_t>(rng.NextBounded(1 << 20)))},
          ts)));
      ++ts;
    }
    chunk.end = stream.elements.size();
    epoch.chunks.push_back(chunk);
    epoch.data_tuples = kWireTuplesPerTick;
    (tick < kWarmupTicks ? in.warmup : in.measured).push_back(std::move(epoch));
  }
  in.streams.push_back(std::move(stream));
  QuerySpec q;
  q.subject = "subscriber";
  q.subject_roles = {0};
  q.sql = "SELECT id, v FROM Feed WHERE k < 500";
  q.predicates = {{1, -1e300, 500.0}};
  q.projection = {0, 2};
  in.queries.push_back(q);
  return in;
}

InputSpec MakeInput(const std::string& workload, uint64_t seed) {
  if (workload == "join_window") return JoinWindowInput(seed);
  if (workload == "policy_churn") return PolicyChurnInput(seed);
  if (workload == "wire_feed") return WireFeedInput(seed);
  return InputSpec{};
}

spstream::SchemaPtr SchemaOf(const StreamSpec& stream) {
  std::vector<spstream::Field> fields;
  for (size_t i = 0; i < stream.fields.size(); ++i) {
    fields.push_back(spstream::Field{stream.fields[i],
                                     stream.field_is_double[i]
                                         ? spstream::ValueType::kDouble
                                         : spstream::ValueType::kInt64});
  }
  return spstream::MakeSchema(stream.name, std::move(fields));
}

std::vector<spstream::StreamElement> ToElements(const InputSpec& input,
                                                const Chunk& chunk) {
  using spstream::Pattern;
  const StreamSpec& stream = input.streams[static_cast<size_t>(chunk.stream)];
  std::vector<spstream::StreamElement> out;
  out.reserve(chunk.end - chunk.begin);
  for (size_t i = chunk.begin; i < chunk.end; ++i) {
    const InputElement& e = stream.elements[i];
    if (!e.is_sp) {
      out.emplace_back(e.tuple);
      continue;
    }
    Pattern tuples = Pattern::Any();
    if (!e.sp.all_tuples) {
      tuples = e.sp.tid_lo == e.sp.tid_hi
                   ? Pattern::Literal(std::to_string(e.sp.tid_lo))
                   : Pattern::Range(e.sp.tid_lo, e.sp.tid_hi);
    }
    spstream::SecurityPunctuation sp(
        Pattern::Literal(stream.name), std::move(tuples), Pattern::Any(),
        Pattern::Any(),
        e.sp.negative ? spstream::Sign::kNegative : spstream::Sign::kPositive,
        /*immutable=*/false, e.sp.ts);
    std::vector<spstream::RoleId> ids;
    for (size_t r = 0; r < kMaxRoles; ++r) {
      if (e.sp.roles.test(r)) ids.push_back(static_cast<spstream::RoleId>(r));
    }
    sp.SetResolvedRoles(spstream::RoleSet::FromIds(ids));
    out.emplace_back(std::move(sp));
  }
  return out;
}

}  // namespace spbench
