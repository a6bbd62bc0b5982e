// Independent reference semantics for the benchmark's result check.
//
// Deliberately written against the benchmark's own input description
// (bench.h) and nothing under src/security or src/exec, so a bug shared by
// the engine's operators cannot hide in the comparison. It implements:
//  * Def. 3.1 sp-batches: consecutive sps of one stream with equal ts form
//    one policy; a batch with a newer ts replaces the policy in force, an
//    older sp is stale and ignored;
//  * denial by default: a tuple before any sp, or one no sp of the batch
//    covers, is readable by nobody;
//  * negative wins: allowed = union(positive roles) - union(negative roles)
//    over the batch's sps whose DDP covers the tuple;
//  * a subject reads a tuple when allowed shares a role with its roles;
//  * the paper's windowed equi-join: (a, b) joins when the keys are equal,
//    |a.ts - b.ts| < RANGE, and allowed(a) & allowed(b) & subject != {}.
//
// Rows are kept as sorted 64-bit hashes, so the reference's own memory stays
// small next to the engine's in peak_rss_mb.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace spbench {

/// Roles allowed to read each element of `stream` (empty for sps).
std::vector<RoleMask> AllowedRoles(const StreamSpec& stream);

/// What the reference expects one query to deliver over one pass, plus the
/// provenance the leak gate needs.
struct Expectation {
  /// Expected result multiset: sorted row hashes, repeated per copy.
  std::vector<uint64_t> rows;
  /// Rows the input can produce (ignoring window and predicate) only from
  /// sources the subject may not read: delivering one is a leak. Sorted.
  std::vector<uint64_t> denied_rows;
  /// Per output column: values that occur only in sources the subject may
  /// not read. Catches an attribute copied out of a denied tuple. Sorted.
  std::vector<std::vector<uint64_t>> denied_values;
};

/// Compute the expectation of `query` over every element of `input`.
Expectation Expect(const InputSpec& input, const QuerySpec& query);

/// Rows a select-project `query` should deliver for each of `epochs` (the
/// open loop waits for exactly that many before it stops a tick's clock).
std::vector<int64_t> ExpectedRowsPerEpoch(const InputSpec& input,
                                          const QuerySpec& query,
                                          const std::vector<Epoch>& epochs);

/// Outcome of comparing one query's delivered rows with its expectation.
struct CheckCounts {
  int64_t delivered = 0;
  int64_t reference = 0;
  int64_t matched = 0;     // |delivered ∩ reference| (multiset)
  int64_t mismatched = 0;  // |delivered ⊖ reference| (multiset)
  int64_t union_size = 0;  // |delivered ∪ reference| (multiset)

  void Add(const CheckCounts& o) {
    delivered += o.delivered;
    reference += o.reference;
    matched += o.matched;
    mismatched += o.mismatched;
    union_size += o.union_size;
  }
};

/// Collects one pass's delivered rows of one query. Add() applies the leak
/// gate to every row as it arrives; Finish() compares the multisets.
class ResultChecker {
 public:
  explicit ResultChecker(const Expectation* expectation)
      : expectation_(expectation) {}

  /// Record a delivered row. Returns a non-empty description when the row,
  /// or one of its attributes, is denied to the subject by the reference.
  std::string Add(const std::vector<spstream::Value>& values);

  CheckCounts Finish();

 private:
  const Expectation* expectation_;
  std::vector<uint64_t> delivered_;
};

}  // namespace spbench
