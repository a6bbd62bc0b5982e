// Self-tests of the benchmark's own machinery: the reference semantics on
// hand-computed cases, the leak gate, and the result line. run.py runs this
// binary before every benchmark run and checks the printed metric names
// against BENCHMARK.json itself.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"
#include "report.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using spbench::InputElement;
using spbench::RoleMask;
using spbench::SpSpec;
using spstream::Tuple;
using spstream::Value;

RoleMask Roles(std::initializer_list<int> ids) {
  RoleMask m;
  for (int id : ids) m.set(static_cast<size_t>(id));
  return m;
}

InputElement Sp(int64_t ts, RoleMask roles, bool negative = false,
                int64_t lo = -1, int64_t hi = -1) {
  InputElement e;
  e.is_sp = true;
  e.sp.ts = ts;
  e.sp.roles = roles;
  e.sp.negative = negative;
  e.sp.all_tuples = lo < 0;
  e.sp.tid_lo = lo;
  e.sp.tid_hi = hi;
  return e;
}

InputElement Tup(int64_t tid, int64_t ts, std::vector<Value> values) {
  InputElement e;
  e.tuple = Tuple(0, tid, std::move(values), ts);
  return e;
}

int64_t Count(const spbench::Expectation& e, std::vector<Value> row) {
  return std::count(e.rows.begin(), e.rows.end(), spbench::RowHash(row));
}

// A window join small enough to compute by hand (RANGE 10, subject role 0).
void TestJoinReference() {
  spbench::InputSpec in;
  in.streams.resize(2);
  in.streams[0].name = "A";
  in.streams[0].elements = {
      Sp(1, Roles({0, 1})),
      Tup(0, 1, {Value(int64_t{1}), Value(int64_t{100})}),   // a1
      Tup(1, 3, {Value(int64_t{2}), Value(int64_t{101})}),   // a2
      Sp(20, Roles({1})),                                    // denies role 0
      Tup(2, 21, {Value(int64_t{1}), Value(int64_t{102})}),  // a3
  };
  in.streams[1].name = "B";
  in.streams[1].elements = {
      Sp(2, Roles({0})),
      Tup(3, 2, {Value(int64_t{1}), Value(int64_t{0})}),  // b1
      Tup(4, 4, {Value(int64_t{2}), Value(int64_t{0})}),  // b3
      Sp(12, Roles({0, 2})),
      Sp(12, Roles({0}), /*negative=*/true),  // same batch: negative wins
      Tup(5, 12, {Value(int64_t{1}), Value(int64_t{0})}),  // b2
  };
  spbench::QuerySpec q;
  q.join = true;
  q.subject_roles = {0};
  q.left_key = 0;
  q.right_key = 0;
  q.left_output = 1;
  q.window = 10;
  const spbench::Expectation e = spbench::Expect(in, q);
  // (a1,b1): dt 1. (a2,b3): dt 1. (a1,b2): dt 11 >= RANGE and b2 denied.
  // (a3,b1): dt 19. (a3,b2): dt 9, but a3 and b2 are both denied.
  CHECK(e.rows.size() == 2);
  CHECK(Count(e, {Value(int64_t{100})}) == 1);
  CHECK(Count(e, {Value(int64_t{101})}) == 1);
  CHECK(Count(e, {Value(int64_t{102})}) == 0);
  CHECK(std::binary_search(e.denied_rows.begin(), e.denied_rows.end(),
                           spbench::RowHash({Value(int64_t{102})})));

  const std::vector<RoleMask> b = spbench::AllowedRoles(in.streams[1]);
  CHECK(b[1] == Roles({0}));
  CHECK(b[5] == Roles({2}));
}

// Tuple-range DDPs, denial by default, negative wins, stale sps.
spbench::InputSpec PolicyInput() {
  spbench::InputSpec in;
  in.streams.resize(1);
  in.streams[0].name = "S";
  in.streams[0].elements = {
      Tup(9, 0, {Value(int64_t{9}), Value(int64_t{1})}),  // before any sp
      Sp(1, Roles({0}), false, 0, 1),
      Sp(1, Roles({1}), false, 2, 3),
      Tup(0, 1, {Value(int64_t{0}), Value(int64_t{10})}),
      Tup(2, 2, {Value(int64_t{2}), Value(int64_t{20})}),
      Tup(4, 3, {Value(int64_t{4}), Value(int64_t{30})}),  // no covering sp
      Sp(5, Roles({0, 1})),
      Sp(5, Roles({1}), /*negative=*/true),
      Tup(5, 5, {Value(int64_t{5}), Value(int64_t{50})}),
      Sp(3, Roles({1})),  // stale: older than the batch in force
      Tup(6, 6, {Value(int64_t{6}), Value(int64_t{500})}),
      Sp(7, Roles({1})),
      Tup(7, 7, {Value(int64_t{7}), Value(int64_t{70})}),
  };
  return in;
}

void TestPolicyReference() {
  const spbench::InputSpec in = PolicyInput();
  const std::vector<RoleMask> allowed = spbench::AllowedRoles(in.streams[0]);
  CHECK(allowed[0].none());
  CHECK(allowed[3] == Roles({0}));
  CHECK(allowed[4] == Roles({1}));
  CHECK(allowed[5].none());
  CHECK(allowed[8] == Roles({0}));
  CHECK(allowed[10] == Roles({0}));
  CHECK(allowed[12] == Roles({1}));

  spbench::QuerySpec q;
  q.subject_roles = {0};
  q.predicates = {{1, -1e300, 100.0}};
  q.projection = {0};
  const spbench::Expectation e = spbench::Expect(in, q);
  // Readable by role 0: tids 0, 5, 6; tid 6 fails the predicate.
  CHECK(e.rows.size() == 2);
  CHECK(Count(e, {Value(int64_t{0})}) == 1);
  CHECK(Count(e, {Value(int64_t{5})}) == 1);
}

void TestLeakGate() {
  const spbench::InputSpec in = PolicyInput();
  spbench::QuerySpec q;
  q.subject_roles = {0};
  q.predicates = {{1, -1e300, 100.0}};
  q.projection = {0, 1};
  const spbench::Expectation e = spbench::Expect(in, q);
  spbench::ResultChecker checker(&e);
  CHECK(checker.Add({Value(int64_t{0}), Value(int64_t{10})}).empty());
  // A fabricated row of tuple 2, which only role 1 may read.
  CHECK(!checker.Add({Value(int64_t{2}), Value(int64_t{20})}).empty());
  // An attribute copied out of a denied tuple into an authorized row.
  CHECK(!checker.Add({Value(int64_t{5}), Value(int64_t{30})}).empty());
  // Not derivable from the input at all: a mismatch, not a leak.
  CHECK(checker.Add({Value(int64_t{1000}), Value(int64_t{1000})}).empty());
  const spbench::CheckCounts c = checker.Finish();
  CHECK(c.delivered == 4);
  CHECK(c.reference == 2);
  CHECK(c.matched == 1);
  CHECK(c.mismatched == 4);  // 3 extra rows + tuple 5's missing row
  CHECK(c.union_size == 5);
}

void TestReport() {
  spbench::Report r;
  for (const auto& m : spbench::EndToEndMetrics()) r.values[m.name] = 1.5;
  const std::string json = spbench::ReportJson(r, /*trace=*/false);
  for (const auto& m : spbench::EndToEndMetrics()) {
    CHECK(json.find(std::string("\"") + m.name + "\": {\"value\": 1.5") !=
          std::string::npos);
  }
  CHECK(spbench::ReportJson(r, /*trace=*/true).empty());  // per-layer unset
  CHECK(spbench::WeightedPercentile({{3.0, 1}, {1.0, 8}, {2.0, 1}}, 0.5) ==
        1.0);
  CHECK(spbench::WeightedPercentile({{3.0, 1}, {1.0, 8}, {2.0, 1}}, 0.95) ==
        3.0);
  CHECK(spbench::Median({4.0, 1.0, 3.0}) == 3.0);
}

}  // namespace

int main() {
  TestJoinReference();
  TestPolicyReference();
  TestLeakGate();
  TestReport();
  if (failures > 0) {
    std::fprintf(stderr, "spbench self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "spbench self-test: ok\n");
  return 0;
}
