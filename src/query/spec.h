#ifndef STREAMLAKE_QUERY_SPEC_H_
#define STREAMLAKE_QUERY_SPEC_H_

#include <string>
#include <vector>

#include "query/predicate.h"

namespace streamlake::query {

/// Aggregate functions supported by the pushdown executor. COUNT is what
/// the paper's DAU query uses (Fig. 13).
struct AggregateSpec {
  enum class Func { kCount, kSum, kMin, kMax, kAvg };
  Func func = Func::kCount;
  std::string column;  // empty for COUNT(*)
  std::string alias;

  static AggregateSpec CountStar(std::string alias = "count");
  /// COUNT(column), SUM, MIN, MAX and AVG; an empty alias names the result
  /// `func(column)`, as SQL does.
  static AggregateSpec Count(std::string column, std::string alias = "");
  static AggregateSpec Sum(std::string column, std::string alias = "");
  static AggregateSpec Min(std::string column, std::string alias = "");
  static AggregateSpec Max(std::string column, std::string alias = "");
  static AggregateSpec Avg(std::string column, std::string alias = "");
};

/// A filter + (optional) GROUP BY + aggregate query, e.g. Fig. 13:
///   SELECT COUNT(*) FROM t WHERE url = ... AND start_time in [a, b)
///   GROUP BY province
struct QuerySpec {
  Conjunction where;
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
  /// For non-aggregate queries: columns to return (empty = all).
  std::vector<std::string> projection;
  /// Sort the result rows by this output column (by name; applies to
  /// aggregate results too). Empty = no ordering.
  std::string order_by;
  bool order_descending = false;
  /// Keep only the first `limit` result rows (0 = unlimited).
  uint64_t limit = 0;
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<format::Row> rows;
  // Execution counters (fed into the per-query metrics of the benches).
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
};

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_SPEC_H_
