#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <unordered_map>

namespace spbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

uint64_t ValueHash(uint64_t h, const spstream::Value& v) {
  if (v.is_int64()) return Mix(Mix(h, 1), static_cast<uint64_t>(v.int64()));
  if (v.is_double()) {
    const double d = v.dbl();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return Mix(Mix(h, 2), bits);
  }
  if (v.is_null()) return Mix(h, 3);
  h = Mix(h, 4);
  for (char c : v.ToString()) h = Mix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

uint64_t RowHash(const std::vector<spstream::Value>& values) {
  uint64_t h = 0x5b5b5b5b5b5b5b5bULL;
  for (const spstream::Value& v : values) h = ValueHash(h, v);
  return h;
}

std::vector<RoleMask> AllowedRoles(const StreamSpec& stream) {
  std::vector<RoleMask> allowed(stream.elements.size());
  std::vector<const SpSpec*> batch;  // the sp-batch in force
  bool batch_open = false;           // no tuple since the batch's last sp
  for (size_t i = 0; i < stream.elements.size(); ++i) {
    const InputElement& e = stream.elements[i];
    if (e.is_sp) {
      if (batch_open && e.sp.ts == batch.front()->ts) {
        batch.push_back(&e.sp);  // same batch: one policy
      } else if (!batch.empty() && e.sp.ts < batch.front()->ts) {
        // stale: older than the policy in force
      } else {
        batch.assign(1, &e.sp);  // a newer batch replaces the policy
        batch_open = true;
      }
      continue;
    }
    batch_open = false;
    RoleMask positive, negative;
    const TupleId tid = e.tuple.tid;
    for (const SpSpec* sp : batch) {
      if (!sp->all_tuples && (tid < sp->tid_lo || tid > sp->tid_hi)) continue;
      (sp->negative ? negative : positive) |= sp->roles;
    }
    // No covering sp leaves `positive` empty: denial by default.
    allowed[i] = positive & ~negative;
  }
  return allowed;
}

namespace {

RoleMask SubjectMask(const QuerySpec& q) {
  RoleMask m;
  for (int r : q.subject_roles) m.set(static_cast<size_t>(r));
  return m;
}

bool Passes(const Tuple& t, const std::vector<RangePredicate>& preds) {
  for (const RangePredicate& p : preds) {
    const double v = t.values[static_cast<size_t>(p.field)].AsDouble();
    if (!(v >= p.lo && v < p.hi)) return false;
  }
  return true;
}

uint64_t ColumnHash(const spstream::Value& v) { return RowHash({v}); }

void SortUnique(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Keys seen only among denied sources: sorted(denied) minus readable.
std::vector<uint64_t> DeniedOnly(std::vector<uint64_t> denied,
                                 std::vector<uint64_t> readable) {
  SortUnique(&denied);
  SortUnique(&readable);
  std::vector<uint64_t> out;
  std::set_difference(denied.begin(), denied.end(), readable.begin(),
                      readable.end(), std::back_inserter(out));
  return out;
}

/// Row and per-column keys split by whether the subject may read a source.
struct Provenance {
  std::vector<uint64_t> rows[2];  // [readable]
  std::vector<std::vector<uint64_t>> columns[2];

  explicit Provenance(size_t width) {
    columns[0].resize(width);
    columns[1].resize(width);
  }
  void Note(uint64_t row, const std::vector<uint64_t>& values, bool readable) {
    rows[readable].push_back(row);
    for (size_t c = 0; c < values.size(); ++c) {
      columns[readable][c].push_back(values[c]);
    }
  }
  void Finish(Expectation* out) {
    out->denied_rows = DeniedOnly(std::move(rows[0]), std::move(rows[1]));
    for (size_t c = 0; c < columns[0].size(); ++c) {
      out->denied_values.push_back(
          DeniedOnly(std::move(columns[0][c]), std::move(columns[1][c])));
    }
    std::sort(out->rows.begin(), out->rows.end());
  }
};

void ExpectSelectProject(const InputSpec& input, const QuerySpec& q,
                         Expectation* out) {
  const StreamSpec& s = input.streams[static_cast<size_t>(q.stream)];
  const std::vector<RoleMask> allowed = AllowedRoles(s);
  const RoleMask subject = SubjectMask(q);
  Provenance prov(q.projection.size());
  std::vector<spstream::Value> row;
  std::vector<uint64_t> columns;
  for (size_t i = 0; i < s.elements.size(); ++i) {
    const InputElement& e = s.elements[i];
    if (e.is_sp) continue;
    const bool readable = (allowed[i] & subject).any();
    row.clear();
    columns.clear();
    for (int field : q.projection) {
      row.push_back(e.tuple.values[static_cast<size_t>(field)]);
      columns.push_back(ColumnHash(row.back()));
    }
    const uint64_t key = RowHash(row);
    prov.Note(key, columns, readable);
    if (readable && Passes(e.tuple, q.predicates)) out->rows.push_back(key);
  }
  prov.Finish(out);
}

void ExpectJoin(const InputSpec& input, const QuerySpec& q,
                Expectation* out) {
  const StreamSpec& ls = input.streams[static_cast<size_t>(q.left)];
  const StreamSpec& rs = input.streams[static_cast<size_t>(q.right)];
  const std::vector<RoleMask> lallowed = AllowedRoles(ls);
  const std::vector<RoleMask> rallowed = AllowedRoles(rs);
  const RoleMask subject = SubjectMask(q);
  std::unordered_map<int64_t, std::vector<size_t>> right_by_key;
  for (size_t j = 0; j < rs.elements.size(); ++j) {
    if (rs.elements[j].is_sp) continue;
    right_by_key[rs.elements[j].tuple.values[static_cast<size_t>(q.right_key)]
                     .int64()]
        .push_back(j);
  }
  Provenance prov(1);
  for (size_t i = 0; i < ls.elements.size(); ++i) {
    const InputElement& a = ls.elements[i];
    if (a.is_sp) continue;
    const uint64_t key =
        ColumnHash(a.tuple.values[static_cast<size_t>(q.left_output)]);
    bool readable = false;
    auto it = right_by_key.find(
        a.tuple.values[static_cast<size_t>(q.left_key)].int64());
    if (it != right_by_key.end()) {
      for (size_t j : it->second) {
        const bool pair_readable =
            (lallowed[i] & rallowed[j] & subject).any();
        readable = readable || pair_readable;
        const Timestamp dt = a.tuple.ts - rs.elements[j].tuple.ts;
        if (pair_readable && (dt < 0 ? -dt : dt) < q.window) {
          out->rows.push_back(key);
        }
      }
    }
    prov.Note(key, {key}, readable);
  }
  prov.Finish(out);
}

}  // namespace

Expectation Expect(const InputSpec& input, const QuerySpec& query) {
  Expectation out;
  if (query.join) {
    ExpectJoin(input, query, &out);
  } else {
    ExpectSelectProject(input, query, &out);
  }
  return out;
}

std::vector<int64_t> ExpectedRowsPerEpoch(const InputSpec& input,
                                          const QuerySpec& query,
                                          const std::vector<Epoch>& epochs) {
  const StreamSpec& s = input.streams[static_cast<size_t>(query.stream)];
  const std::vector<RoleMask> allowed = AllowedRoles(s);
  const RoleMask subject = SubjectMask(query);
  std::vector<int64_t> counts;
  for (const Epoch& epoch : epochs) {
    int64_t n = 0;
    for (const Chunk& c : epoch.chunks) {
      if (c.stream != query.stream) continue;
      for (size_t i = c.begin; i < c.end; ++i) {
        const InputElement& e = s.elements[i];
        if (!e.is_sp && (allowed[i] & subject).any() &&
            Passes(e.tuple, query.predicates)) {
          ++n;
        }
      }
    }
    counts.push_back(n);
  }
  return counts;
}

std::string ResultChecker::Add(const std::vector<spstream::Value>& values) {
  const uint64_t key = RowHash(values);
  delivered_.push_back(key);
  auto denied = [](const std::vector<uint64_t>& set, uint64_t k) {
    return std::binary_search(set.begin(), set.end(), k);
  };
  if (denied(expectation_->denied_rows, key)) {
    return "a row readable only from tuples denied to the subject";
  }
  const size_t columns =
      std::min(values.size(), expectation_->denied_values.size());
  for (size_t c = 0; c < columns; ++c) {
    if (denied(expectation_->denied_values[c], RowHash({values[c]}))) {
      return "attribute " + std::to_string(c) + " (" + values[c].ToString() +
             ") occurs only in tuples denied to the subject";
    }
  }
  return "";
}

CheckCounts ResultChecker::Finish() {
  std::sort(delivered_.begin(), delivered_.end());
  const std::vector<uint64_t>& want = expectation_->rows;
  CheckCounts c;
  c.delivered = static_cast<int64_t>(delivered_.size());
  c.reference = static_cast<int64_t>(want.size());
  // Merge the two sorted multisets key group by key group.
  size_t i = 0, j = 0;
  while (i < delivered_.size() || j < want.size()) {
    const bool take_delivered =
        j == want.size() || (i < delivered_.size() && delivered_[i] < want[j]);
    const uint64_t key = take_delivered ? delivered_[i] : want[j];
    int64_t got = 0, exp = 0;
    while (i < delivered_.size() && delivered_[i] == key) ++got, ++i;
    while (j < want.size() && want[j] == key) ++exp, ++j;
    c.matched += std::min(got, exp);
    c.union_size += std::max(got, exp);
    c.mismatched += got > exp ? got - exp : exp - got;
  }
  return c;
}

}  // namespace spbench
