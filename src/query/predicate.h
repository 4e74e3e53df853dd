#ifndef STREAMLAKE_QUERY_PREDICATE_H_
#define STREAMLAKE_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "format/lakefile.h"
#include "format/schema.h"
#include "format/types.h"

namespace streamlake::query {

/// Comparison operators of pushdown predicates. The set matches the
/// query-tree framework of Section VI-B: {<=, >=, <, >, =, IN}, plus the
/// != the SQL grammar needs and the IS [NOT] NULL tests. Tag values are
/// persisted in merge-on-read delete commits, so existing encodings must
/// keep their positions; new operators append at the end.
enum class CompareOp { kLe, kGe, kLt, kGt, kEq, kIn, kNe, kIsNull, kIsNotNull };

const char* CompareOpName(CompareOp op);

/// One predicate: (attribute, operator, literal) — e.g.
/// (start_time, >=, 1656806400) from the DAU query of Fig. 13.
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  format::Value literal;
  std::vector<format::Value> in_list;  // kIn only

  static Predicate Le(std::string column, format::Value v);
  static Predicate Ge(std::string column, format::Value v);
  static Predicate Lt(std::string column, format::Value v);
  static Predicate Gt(std::string column, format::Value v);
  static Predicate Eq(std::string column, format::Value v);
  static Predicate Ne(std::string column, format::Value v);
  static Predicate In(std::string column, std::vector<format::Value> values);
  static Predicate IsNull(std::string column);
  static Predicate IsNotNull(std::string column);

  /// Evaluate against one value of the predicate's column.
  bool Matches(const format::Value& v) const;

  std::string ToString() const;

  void EncodeTo(Bytes* dst) const;
  static Result<Predicate> DecodeFrom(Decoder* dec);
};

/// Conjunction of predicates (the WHERE clause). An empty conjunction
/// matches everything.
class Conjunction {
 public:
  Conjunction() = default;
  Conjunction(std::initializer_list<Predicate> predicates)
      : predicates_(predicates) {}
  explicit Conjunction(std::vector<Predicate> predicates)
      : predicates_(std::move(predicates)) {}

  void Add(Predicate predicate) { predicates_.push_back(std::move(predicate)); }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  bool empty() const { return predicates_.empty(); }

  /// Row-level evaluation.
  bool Matches(const format::Schema& schema, const format::Row& row) const;

  /// Stats-level pruning: can any row with `column` in [min, max] match?
  /// Conservative — returns true when unsure. `row_count` (the number of
  /// rows the stats describe, when known) enables IS [NOT] NULL pruning
  /// against the extended null_count stat.
  bool MayMatchStats(const std::string& column,
                     const format::ColumnStats& stats,
                     uint64_t row_count = 0) const;

  std::string ToString() const;

  /// Serialization (merge-on-read delete predicates persist in commits).
  void EncodeTo(Bytes* dst) const;
  static Result<Conjunction> DecodeFrom(Decoder* dec);

 private:
  std::vector<Predicate> predicates_;
};

/// The type check every SQL literal passes before it can reach
/// CompareValues (which aborts on mixed types): `literal` must fit
/// `column` of `schema`. NULL fits any column and an INT64 literal on a
/// DOUBLE column becomes a DOUBLE; an unknown column or any other type
/// mismatch is InvalidArgument naming the column and both types.
Result<format::Value> CoerceLiteral(const format::Schema& schema,
                                    const std::string& column,
                                    format::Value literal);

/// CoerceLiteral over every predicate of `where`: its column must exist and
/// its literal (or each IN-list value) fit the column.
Result<Conjunction> CoerceConjunction(const format::Schema& schema,
                                      const Conjunction& where);

/// May a single predicate match some value in [min, max]?
bool PredicateMayMatchRange(const Predicate& predicate,
                            const format::Value& min,
                            const format::Value& max);

/// Evaluate `p` against every dictionary entry of a dict-view chunk:
/// `table[code]` says whether rows carrying `code` match. This is the
/// compute-on-compressed step — |dict| evaluations instead of |rows|.
std::vector<char> DictMatchTable(const Predicate& p,
                                 const format::ColumnChunkData& chunk);

/// Clear `(*selected)[r]` (one 0/1 flag per row of a dict-view `chunk`)
/// where row r is NULL or its code maps to 0 in `match` (DictMatchTable).
/// Returns the number of rows it deselected.
uint64_t AndCodeMatches(const std::vector<char>& match,
                        const format::ColumnChunkData& chunk,
                        std::vector<char>* selected);

/// The column-at-a-time form of `p.Matches(chunk.ValueAt(r))`: clear
/// `(*selected)[r]` for every selected row r of `chunk` that `p` rejects,
/// and return the number of rows it deselected. IS [NOT] NULL reads the
/// null mask, a dict-view chunk goes through DictMatchTable, and a plain
/// int64 or double chunk compared against literals of its own type runs a
/// typed kernel over the value vector with CompareValues' ordering (a NaN
/// compares equal to everything, -0.0 equals 0.0). Anything else falls
/// back to Predicate::Matches per row.
uint64_t AndMatches(const Predicate& p, const format::ColumnChunkData& chunk,
                    std::vector<char>* selected);

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_PREDICATE_H_
