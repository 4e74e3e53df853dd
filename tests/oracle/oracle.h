#ifndef STREAMLAKE_TESTS_ORACLE_ORACLE_H_
#define STREAMLAKE_TESTS_ORACLE_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/schema.h"
#include "format/types.h"
#include "query/spec.h"

/// The row-at-a-time reference of the query layer, for tests and for the
/// benches that check a result. It never calls the product's operators
/// (query::Executor, query::AggregateOperator, the key table), so it stays
/// independent of the code it checks; it shares only the value types and
/// the two comparisons, format::CompareValues (WHERE) and
/// format::CompareKeys (the key rule).
namespace streamlake::oracle {

/// Strict weak ordering by format::CompareKeys, over one key or a
/// composite key (lexicographic, a shorter prefix first).
struct KeyLess {
  bool operator()(const format::Value& a, const format::Value& b) const {
    return format::CompareKeys(a, b) < 0;
  }
  bool operator()(const std::vector<format::Value>& a,
                  const std::vector<format::Value>& b) const;
};

/// WHERE on one row: each predicate's column looked up by name in
/// `schema`, then Predicate::Matches on its cell. A predicate naming an
/// unknown column matches nothing; an empty conjunction matches every row.
bool Matches(const query::Conjunction& where, const format::Schema& schema,
             const format::Row& row);

/// \brief The reference executor of a QuerySpec over rows.
///
/// Rows arrive in fragments (one data file's visible rows, say). Each
/// fragment folds into its own partial state, with WHERE evaluated per row
/// and groups kept in a std::map ordered by KeyLess; the fragments' states
/// then merge in the order they were consumed, so a double SUM takes the
/// same additions, in the same order, as a scan that merges its fragments
/// in file order. A group's key cells come from its first row, and MIN/MAX
/// keep the first of equal values.
class RowExecutor {
 public:
  RowExecutor(const format::Schema& schema, const query::QuerySpec& spec);

  /// Consume one fragment's rows.
  void ConsumeFragment(const std::vector<format::Row>& rows);

  /// The result: one row per group (sorted by the key rule) for an
  /// aggregate, else the matching rows projected. InvalidArgument for a
  /// column the schema lacks.
  Result<query::QueryResult> Finalize();

 private:
  struct Aggregate {
    int64_t count = 0;  // rows (COUNT(*)) or non-NULL inputs
    double sum = 0.0;
    format::Value extreme{std::monostate{}};  // MIN/MAX; NULL before input
  };
  using Groups =
      std::map<std::vector<format::Value>, std::vector<Aggregate>, KeyLess>;

  const format::Schema schema_;
  const query::QuerySpec spec_;
  Status status_;                // an unknown column, if any
  std::vector<int> group_cols_;  // schema index per GROUP BY column
  std::vector<int> agg_cols_;    // per aggregate; -1 for COUNT(*)
  std::vector<int> columns_;     // the projection; empty: every column
  Groups groups_;
  std::vector<format::Row> plain_rows_;
  uint64_t rows_scanned_ = 0;
  uint64_t rows_matched_ = 0;
};

/// RowExecutor over one fragment.
Result<query::QueryResult> Execute(const format::Schema& schema,
                                   const std::vector<format::Row>& rows,
                                   const query::QuerySpec& spec);

}  // namespace streamlake::oracle

#endif  // STREAMLAKE_TESTS_ORACLE_ORACLE_H_
