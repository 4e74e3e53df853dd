#ifndef STREAMLAKE_QUERY_PREDICATE_H_
#define STREAMLAKE_QUERY_PREDICATE_H_

#include <functional>
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

/// Does every value in [min, max] satisfy `predicate`? Conservative: false
/// when unsure. It answers only for min/max of the literal's type and for
/// <, <=, >, >=, = and a != whose literal lies outside the range; NULLs
/// are the caller's to rule out (no comparison matches a NULL).
bool PredicateHoldsForRange(const Predicate& predicate,
                            const format::Value& min,
                            const format::Value& max);

/// The column-at-a-time form of `p.Matches(chunk.ValueAt(r))`: clear
/// `(*selected)[r]` for every selected row r of `chunk` that `p` rejects,
/// and return the number of rows it deselected. IS [NOT] NULL reads the
/// null mask. A dict-view chunk evaluates `p` once per dictionary entry and
/// compares each row's code against that table; when no entry matches, it
/// clears every row without reading the codes, and `dict_prunes` (may be
/// null) counts it if `p` is = or IN: the compute-on-compressed prune that
/// min/max stats cannot make when the literal falls inside the range. A
/// plain int64 or double chunk compared against literals of its own type
/// runs a typed kernel over the value vector with CompareValues' ordering
/// (a NaN compares equal to everything, -0.0 equals 0.0). Anything else
/// falls back to Predicate::Matches per row.
uint64_t AndMatches(const Predicate& p, const format::ColumnChunkData& chunk,
                    std::vector<char>* selected,
                    uint64_t* dict_prunes = nullptr);

/// A conjunction bound to one schema's columns, evaluated column at a time
/// over decoded chunks: the one evaluator of WHERE, merge-on-read masks and
/// the rewrites' match test. Binding stops at the first predicate naming a
/// column the schema lacks; such a conjunction matches no row, and
/// `predicates` keeps the ones bound before it.
///
/// A row group's footer stats settle a predicate when they show that no
/// row can match it (MayMatch) or that every row does (AndInto skips its
/// evaluation); only the predicates they leave open touch rows.
struct BoundConjunction {
  struct Bound {
    const Predicate* predicate;  // points into the bound Conjunction
    size_t column;               // schema index
  };
  /// Decoded chunk of a schema column, decoding it on first use.
  using ChunkAt =
      std::function<Result<const format::ColumnChunkData*>(size_t column)>;

  BoundConjunction(const Conjunction& where, const format::Schema& schema);

  /// May some row of `group` match, by its footer stats (the test
  /// Conjunction::MayMatchStats makes)? When one predicate rules the group
  /// out, it counts one in `settled` (may be null).
  bool MayMatch(const format::RowGroupMeta& group, uint64_t* settled) const;

  /// AND the conjunction into `*selected` (one 0/1 flag per row, of which
  /// `selected_rows` are set) one predicate at a time through AndMatches,
  /// and return the rows left set. It stops once none is, so no later
  /// predicate's chunk is asked for. Each predicate's chunk is asked for at
  /// its turn even when `group` (the rows' footer stats; may be null) shows
  /// that every row satisfies it; such a predicate then skips AndMatches
  /// and counts one in `settled`. `dict_prunes` and `settled` may be null.
  Result<uint64_t> AndInto(const ChunkAt& chunk_at,
                           const format::RowGroupMeta* group,
                           std::vector<char>* selected, uint64_t selected_rows,
                           uint64_t* dict_prunes, uint64_t* settled) const;

  std::vector<Bound> predicates;  // those bound before an unknown column
  bool matches_none = false;      // an unknown column was named
};

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_PREDICATE_H_
