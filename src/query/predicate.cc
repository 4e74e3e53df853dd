#include "query/predicate.h"

#include <algorithm>

namespace streamlake::query {

namespace {

/// Clear `sel[r]` wherever `keep(values[r])` is false or row r is NULL;
/// branch-free so the compiler can vectorize it. Returns rows deselected.
template <typename T, typename Keep>
uint64_t AndTyped(const std::vector<T>& values,
                  const std::vector<uint8_t>& nulls, Keep keep,
                  std::vector<char>* selected) {
  char* sel = selected->data();
  const size_t n = values.size();
  uint64_t dropped = 0;
  if (nulls.empty()) {
    for (size_t r = 0; r < n; ++r) {
      const char k = keep(values[r]) ? 1 : 0;
      dropped += static_cast<uint64_t>(sel[r] & (k ^ 1));
      sel[r] &= k;
    }
  } else {
    for (size_t r = 0; r < n; ++r) {
      const char k = (keep(values[r]) && nulls[r] == 0) ? 1 : 0;
      dropped += static_cast<uint64_t>(sel[r] & (k ^ 1));
      sel[r] &= k;
    }
  }
  return dropped;
}

/// Clear `(*selected)[r]` for every selected row r that `reject(r)` holds
/// for, and return the number of rows it deselected.
template <typename Reject>
uint64_t Deselect(std::vector<char>* selected, Reject reject) {
  std::vector<char>& sel = *selected;
  uint64_t dropped = 0;
  for (size_t r = 0; r < sel.size(); ++r) {
    if (sel[r] && reject(r)) {
      sel[r] = 0;
      ++dropped;
    }
  }
  return dropped;
}

/// The typed kernel of `p` over a plain vector of T (int64_t or double),
/// when every literal it compares against holds a T. The comparisons
/// spell out CompareValues' three-way result (x < y ? -1 : x > y ? 1 : 0),
/// so NaN and signed zeros order exactly as Predicate::Matches orders them.
/// Returns false, touching nothing, when a literal has another type.
template <typename T>
bool AndTypedMatches(const Predicate& p, const format::ColumnChunkData& chunk,
                     std::vector<char>* selected, uint64_t* dropped) {
  const auto& values = std::get<std::vector<T>>(chunk.values);
  if (p.op == CompareOp::kIn) {
    std::vector<T> candidates;
    for (const format::Value& v : p.in_list) {
      if (format::IsNull(v)) continue;  // NULL never equals a value
      const T* c = std::get_if<T>(&v);
      if (c == nullptr) return false;
      candidates.push_back(*c);
    }
    *dropped = AndTyped(
        values, chunk.null_mask,
        [&candidates](T x) {
          for (T c : candidates) {
            if (!(x < c) && !(x > c)) return true;
          }
          return false;
        },
        selected);
    return true;
  }
  const T* lit = std::get_if<T>(&p.literal);
  if (lit == nullptr) return false;
  const T y = *lit;
  const std::vector<uint8_t>& nulls = chunk.null_mask;
  switch (p.op) {
    case CompareOp::kLe:
      *dropped = AndTyped(values, nulls, [y](T x) { return !(x > y); },
                          selected);
      return true;
    case CompareOp::kGe:
      *dropped = AndTyped(values, nulls, [y](T x) { return !(x < y); },
                          selected);
      return true;
    case CompareOp::kLt:
      *dropped = AndTyped(values, nulls, [y](T x) { return x < y; },
                          selected);
      return true;
    case CompareOp::kGt:
      *dropped = AndTyped(values, nulls, [y](T x) { return x > y; },
                          selected);
      return true;
    case CompareOp::kEq:
      *dropped = AndTyped(values, nulls,
                          [y](T x) { return !(x < y) && !(x > y); },
                          selected);
      return true;
    case CompareOp::kNe:
      *dropped = AndTyped(values, nulls,
                          [y](T x) { return x < y || x > y; }, selected);
      return true;
    default:
      return false;
  }
}

/// May some row of a `row_count`-row chunk with `stats` match `p`? The
/// test Conjunction::MayMatchStats makes for each predicate on the column.
bool PredicateMayMatchStats(const Predicate& p,
                            const format::ColumnStats& stats,
                            uint64_t row_count) {
  const bool all_null = stats.has_extended && row_count > 0 &&
                        stats.null_count == row_count;
  if (p.op == CompareOp::kIsNull) {
    return !(stats.has_extended && stats.null_count == 0);
  }
  if (p.op == CompareOp::kIsNotNull) return !all_null;
  if (all_null) return false;  // comparisons never match NULL
  if (!stats.min.has_value() || !stats.max.has_value()) return true;
  if (format::TypeOf(*stats.min) != format::TypeOf(p.literal)) {
    return true;  // mismatched type: cannot prune safely
  }
  return PredicateMayMatchRange(p, *stats.min, *stats.max);
}

/// Does every row of a chunk with `stats` satisfy `p`? Only a chunk with
/// no NULL and a min/max (a double chunk holding a NaN has none) can say.
bool PredicateHoldsForStats(const Predicate& p,
                            const format::ColumnStats& stats) {
  return stats.has_extended && stats.null_count == 0 &&
         stats.min.has_value() && stats.max.has_value() &&
         PredicateHoldsForRange(p, *stats.min, *stats.max);
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kIn:
      return "IN";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kIsNull:
      return "IS NULL";
    case CompareOp::kIsNotNull:
      return "IS NOT NULL";
  }
  return "?";
}

Predicate Predicate::Le(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kLe, std::move(v), {}};
}
Predicate Predicate::Ge(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kGe, std::move(v), {}};
}
Predicate Predicate::Lt(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kLt, std::move(v), {}};
}
Predicate Predicate::Gt(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kGt, std::move(v), {}};
}
Predicate Predicate::Eq(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kEq, std::move(v), {}};
}
Predicate Predicate::Ne(std::string column, format::Value v) {
  return Predicate{std::move(column), CompareOp::kNe, std::move(v), {}};
}
Predicate Predicate::In(std::string column,
                        std::vector<format::Value> values) {
  Predicate p;
  p.column = std::move(column);
  p.op = CompareOp::kIn;
  p.in_list = std::move(values);
  if (!p.in_list.empty()) p.literal = p.in_list.front();
  return p;
}

bool Predicate::Matches(const format::Value& v) const {
  if (op == CompareOp::kIsNull) return format::IsNull(v);
  if (op == CompareOp::kIsNotNull) return !format::IsNull(v);
  // SQL comparison semantics: NULL satisfies no comparison predicate.
  if (format::IsNull(v)) return false;
  if (op != CompareOp::kIn && format::IsNull(literal)) return false;
  switch (op) {
    case CompareOp::kLe:
      return format::CompareValues(v, literal) <= 0;
    case CompareOp::kGe:
      return format::CompareValues(v, literal) >= 0;
    case CompareOp::kLt:
      return format::CompareValues(v, literal) < 0;
    case CompareOp::kGt:
      return format::CompareValues(v, literal) > 0;
    case CompareOp::kEq:
      return format::CompareValues(v, literal) == 0;
    case CompareOp::kNe:
      return format::CompareValues(v, literal) != 0;
    case CompareOp::kIn:
      for (const format::Value& candidate : in_list) {
        if (format::IsNull(candidate)) continue;
        if (format::CompareValues(v, candidate) == 0) return true;
      }
      return false;
    case CompareOp::kIsNull:
    case CompareOp::kIsNotNull:
      break;  // handled above
  }
  return false;
}

std::string Predicate::ToString() const {
  if (op == CompareOp::kIsNull || op == CompareOp::kIsNotNull) {
    return column + " " + CompareOpName(op);
  }
  if (op == CompareOp::kIn) {
    std::string s = column + " IN (";
    for (size_t i = 0; i < in_list.size(); ++i) {
      if (i) s += ", ";
      s += format::ValueToString(in_list[i]);
    }
    return s + ")";
  }
  return column + " " + CompareOpName(op) + " " +
         format::ValueToString(literal);
}

void Predicate::EncodeTo(Bytes* dst) const {
  PutLengthPrefixed(dst, std::string_view(column));
  dst->push_back(static_cast<uint8_t>(op));
  format::EncodeValue(dst, literal);
  PutVarint64(dst, in_list.size());
  for (const format::Value& v : in_list) format::EncodeValue(dst, v);
}

Result<Predicate> Predicate::DecodeFrom(Decoder* dec) {
  Predicate p;
  if (!dec->GetString(&p.column)) return Status::Corruption("pred column");
  if (dec->Remaining() < 1) return Status::Corruption("pred op");
  p.op = static_cast<CompareOp>(*dec->position());
  if (p.op > CompareOp::kIsNotNull) return Status::Corruption("pred op tag");
  dec->Skip(1);
  SL_ASSIGN_OR_RETURN(p.literal, format::DecodeValue(dec));
  uint64_t in_count;
  if (!dec->GetVarint(&in_count)) return Status::Corruption("pred in count");
  if (in_count > dec->Remaining()) {
    return Status::Corruption("pred in count bogus");
  }
  for (uint64_t i = 0; i < in_count; ++i) {
    SL_ASSIGN_OR_RETURN(format::Value v, format::DecodeValue(dec));
    p.in_list.push_back(std::move(v));
  }
  return p;
}

void Conjunction::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, predicates_.size());
  for (const Predicate& p : predicates_) p.EncodeTo(dst);
}

Result<Conjunction> Conjunction::DecodeFrom(Decoder* dec) {
  uint64_t count;
  if (!dec->GetVarint(&count)) return Status::Corruption("conjunction count");
  if (count > dec->Remaining()) {
    return Status::Corruption("conjunction count bogus");
  }
  std::vector<Predicate> predicates;
  predicates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SL_ASSIGN_OR_RETURN(Predicate p, Predicate::DecodeFrom(dec));
    predicates.push_back(std::move(p));
  }
  return Conjunction(std::move(predicates));
}

Result<format::Value> CoerceLiteral(const format::Schema& schema,
                                    const std::string& column,
                                    format::Value literal) {
  int idx = schema.FieldIndex(column);
  if (idx < 0) {
    return Status::InvalidArgument("unknown column '" + column + "'");
  }
  const format::DataType type = schema.field(idx).type;
  const format::DataType given = format::TypeOf(literal);
  if (format::IsNull(literal) || given == type) return literal;
  if (type == format::DataType::kDouble && given == format::DataType::kInt64) {
    return format::Value(static_cast<double>(std::get<int64_t>(literal)));
  }
  return Status::InvalidArgument(
      "column '" + column + "' is " + format::DataTypeName(type) +
      " but literal " + format::ValueToString(literal) + " is " +
      format::DataTypeName(given));
}

Result<Conjunction> CoerceConjunction(const format::Schema& schema,
                                      const Conjunction& where) {
  Conjunction out;
  for (Predicate p : where.predicates()) {
    SL_ASSIGN_OR_RETURN(p.literal,
                        CoerceLiteral(schema, p.column, std::move(p.literal)));
    for (format::Value& v : p.in_list) {
      SL_ASSIGN_OR_RETURN(v, CoerceLiteral(schema, p.column, std::move(v)));
    }
    out.Add(std::move(p));
  }
  return out;
}

bool PredicateMayMatchRange(const Predicate& predicate,
                            const format::Value& min,
                            const format::Value& max) {
  switch (predicate.op) {
    case CompareOp::kLe:
      return format::CompareValues(min, predicate.literal) <= 0;
    case CompareOp::kLt:
      return format::CompareValues(min, predicate.literal) < 0;
    case CompareOp::kGe:
      return format::CompareValues(max, predicate.literal) >= 0;
    case CompareOp::kGt:
      return format::CompareValues(max, predicate.literal) > 0;
    case CompareOp::kEq:
      return format::CompareValues(min, predicate.literal) <= 0 &&
             format::CompareValues(max, predicate.literal) >= 0;
    case CompareOp::kNe:
      // Only an all-equal range [v, v] with v == literal is fully excluded.
      return !(format::CompareValues(min, predicate.literal) == 0 &&
               format::CompareValues(max, predicate.literal) == 0);
    case CompareOp::kIn:
      for (const format::Value& v : predicate.in_list) {
        if (format::CompareValues(min, v) <= 0 &&
            format::CompareValues(max, v) >= 0) {
          return true;
        }
      }
      return false;
    case CompareOp::kIsNull:
    case CompareOp::kIsNotNull:
      return true;  // a value range says nothing about NULLs
  }
  return true;
}

bool PredicateHoldsForRange(const Predicate& predicate,
                            const format::Value& min,
                            const format::Value& max) {
  const format::Value& literal = predicate.literal;
  if (format::TypeOf(min) != format::TypeOf(literal) ||
      format::TypeOf(max) != format::TypeOf(literal)) {
    return false;
  }
  switch (predicate.op) {
    case CompareOp::kLe:
      return format::CompareValues(max, literal) <= 0;
    case CompareOp::kLt:
      return format::CompareValues(max, literal) < 0;
    case CompareOp::kGe:
      return format::CompareValues(min, literal) >= 0;
    case CompareOp::kGt:
      return format::CompareValues(min, literal) > 0;
    case CompareOp::kEq:
      return format::CompareValues(min, literal) == 0 &&
             format::CompareValues(max, literal) == 0;
    case CompareOp::kNe:
      return format::CompareValues(max, literal) < 0 ||
             format::CompareValues(min, literal) > 0;
    case CompareOp::kIn:
    case CompareOp::kIsNull:
    case CompareOp::kIsNotNull:
      return false;
  }
  return false;
}

bool Conjunction::MayMatchStats(const std::string& column,
                                const format::ColumnStats& stats,
                                uint64_t row_count) const {
  for (const Predicate& predicate : predicates_) {
    if (predicate.column == column &&
        !PredicateMayMatchStats(predicate, stats, row_count)) {
      return false;
    }
  }
  return true;
}

std::string Conjunction::ToString() const {
  if (predicates_.empty()) return "TRUE";
  std::string s;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i) s += " AND ";
    s += predicates_[i].ToString();
  }
  return s;
}

uint64_t AndMatches(const Predicate& p, const format::ColumnChunkData& chunk,
                    std::vector<char>* selected, uint64_t* dict_prunes) {
  if (p.op == CompareOp::kIsNull || p.op == CompareOp::kIsNotNull) {
    const bool want_null = p.op == CompareOp::kIsNull;
    return Deselect(selected,
                    [&](size_t r) { return chunk.IsNullAt(r) != want_null; });
  }
  if (chunk.dict_view) {
    // Compute on compressed data: evaluate `p` once per dictionary entry
    // (|dict| evaluations, not |rows|), then compare codes to the table.
    const std::vector<char> match = std::visit(
        [&p](const auto& dict) {
          std::vector<char> table(dict.size());
          for (size_t i = 0; i < dict.size(); ++i) {
            table[i] = p.Matches(format::Value(dict[i])) ? 1 : 0;
          }
          return table;
        },
        chunk.dict);
    const bool none = std::find(match.begin(), match.end(), 1) == match.end();
    if (none && dict_prunes != nullptr &&
        (p.op == CompareOp::kEq || p.op == CompareOp::kIn)) {
      ++*dict_prunes;
    }
    return Deselect(selected, [&](size_t r) {
      return none || chunk.IsNullAt(r) || !match[chunk.codes[r]];
    });
  }
  uint64_t dropped = 0;
  if (chunk.type == format::DataType::kInt64 &&
      AndTypedMatches<int64_t>(p, chunk, selected, &dropped)) {
    return dropped;
  }
  if (chunk.type == format::DataType::kDouble &&
      AndTypedMatches<double>(p, chunk, selected, &dropped)) {
    return dropped;
  }
  return Deselect(selected,
                  [&](size_t r) { return !p.Matches(chunk.ValueAt(r)); });
}

BoundConjunction::BoundConjunction(const Conjunction& where,
                                   const format::Schema& schema) {
  for (const Predicate& p : where.predicates()) {
    const int column = schema.FieldIndex(p.column);
    if (column < 0) {
      matches_none = true;
      break;
    }
    predicates.push_back({&p, static_cast<size_t>(column)});
  }
}

bool BoundConjunction::MayMatch(const format::RowGroupMeta& group,
                                uint64_t* settled) const {
  if (matches_none) return false;
  for (const Bound& bound : predicates) {
    if (!PredicateMayMatchStats(*bound.predicate,
                                group.columns[bound.column].stats,
                                group.num_rows)) {
      if (settled != nullptr) ++*settled;
      return false;
    }
  }
  return true;
}

Result<uint64_t> BoundConjunction::AndInto(const ChunkAt& chunk_at,
                                           const format::RowGroupMeta* group,
                                           std::vector<char>* selected,
                                           uint64_t selected_rows,
                                           uint64_t* dict_prunes,
                                           uint64_t* settled) const {
  if (matches_none) {
    std::fill(selected->begin(), selected->end(), 0);
    return 0;
  }
  for (const Bound& bound : predicates) {
    if (selected_rows == 0) break;
    // The chunk decodes even when the stats settle the predicate, so a
    // scan decodes (and caches) the same chunks either way.
    SL_ASSIGN_OR_RETURN(const format::ColumnChunkData* chunk,
                        chunk_at(bound.column));
    if (group != nullptr &&
        PredicateHoldsForStats(*bound.predicate,
                               group->columns[bound.column].stats)) {
      if (settled != nullptr) ++*settled;
      continue;
    }
    selected_rows -= AndMatches(*bound.predicate, *chunk, selected,
                                dict_prunes);
  }
  return selected_rows;
}

}  // namespace streamlake::query
