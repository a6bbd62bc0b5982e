// Shared types of the spstream benchmark (see NOTES.md).
//
// A workload's input is described in the benchmark's own terms (InputSpec):
// per-stream element sequences whose security punctuations are plain
// structs, cut into epochs of push chunks. The reference (reference.h) reads
// only this description; inputs.h turns it into the engine's StreamElements.
#pragma once

#include <bitset>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/tuple.h"

namespace spbench {

using spstream::Timestamp;
using spstream::Tuple;
using spstream::TupleId;

/// Role pools stay below this size in every workload.
constexpr size_t kMaxRoles = 128;
using RoleMask = std::bitset<kMaxRoles>;

/// One security punctuation, Def. 3.1, restricted to what the workloads
/// emit: a DDP naming one stream and either every tuple or an inclusive
/// tuple-id range, a role set, and a sign. Attribute patterns are always
/// "*" (whole-tuple policies).
struct SpSpec {
  Timestamp ts = 0;
  bool all_tuples = true;
  TupleId tid_lo = 0;
  TupleId tid_hi = 0;
  bool negative = false;
  RoleMask roles;
};

/// One element of a stream: a punctuation or a tuple.
struct InputElement {
  bool is_sp = false;
  SpSpec sp;
  Tuple tuple;
};

struct StreamSpec {
  std::string name;
  std::vector<std::string> fields;
  std::vector<bool> field_is_double;
  std::vector<InputElement> elements;
};

/// A half-open range [begin, end) of one stream's elements, handed to the
/// program in one push call.
struct Chunk {
  int stream = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// One epoch: the chunks pushed before one Run, in push order.
struct Epoch {
  std::vector<Chunk> chunks;
  int64_t data_tuples = 0;
};

/// A conjunct `lo <= field < hi` of a select predicate.
struct RangePredicate {
  int field = 0;
  double lo = 0;
  double hi = 0;
};

/// One continuous query of a workload and the subject that registered it.
struct QuerySpec {
  std::string subject;
  std::vector<int> subject_roles;  // role ids, as registered
  std::string sql;
  // Select-project over `stream` (when join is false).
  int stream = 0;
  std::vector<RangePredicate> predicates;
  std::vector<int> projection;
  // Windowed equi-join `left.key = right.key` emitting left.output (when
  // join is true); a pair joins when |ts_left - ts_right| < window.
  bool join = false;
  int left = 0;
  int right = 1;
  int left_key = 0;
  int right_key = 0;
  int left_output = 1;
  Timestamp window = 0;
};

/// Everything one workload feeds the program, generated from the seed.
struct InputSpec {
  std::vector<std::string> roles;  // registration order = role id
  std::vector<StreamSpec> streams;
  std::vector<QuerySpec> queries;
  std::vector<Epoch> warmup;    // run during set-up
  std::vector<Epoch> measured;  // the timed phase of one pass
};

/// Multiset key of a result row: a 64-bit hash of its type-tagged values
/// (doubles by bit pattern, so equality stays exact).
uint64_t RowHash(const std::vector<spstream::Value>& values);

}  // namespace spbench
