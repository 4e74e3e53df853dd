#ifndef STREAMLAKE_QUERY_EXECUTOR_H_
#define STREAMLAKE_QUERY_EXECUTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "query/operators.h"
#include "query/spec.h"

namespace streamlake::query {

/// \brief In-memory relational executor used both at the "compute engine"
/// side and storage-side when computation pushdown is enabled: the output
/// stage of every query (aggregate or projection, then sort/limit). It
/// keeps the scan-fragment contract the scan pipeline relies on (Consume
/// per scanned or joined batch of a fragment, MergeFrom in deterministic
/// file order, Finalize once). WHERE is the scan's: Consume sees only
/// matched rows.
class Executor {
 public:
  /// Executes `spec` over the rows consumed, resolving its columns
  /// against `schema` once; status() reports a column the schema lacks.
  Executor(const format::Schema& schema, const QuerySpec& spec);

  Status status() const { return init_status_; }

  /// The schema columns the output stage reads, ascending: the GROUP BY
  /// and aggregate inputs, or the projection. nullopt for SELECT * (no
  /// aggregate, no projection), which reads every column.
  std::optional<std::vector<int>> InputColumns() const;

  /// Consume rows held in place in column chunks (a scan's selected rows,
  /// or joined rows): the `rows` matched out of `scanned`. An aggregate
  /// folds them without building rows; a projection builds only its
  /// columns, SELECT * every column.
  Status Consume(const ChunkRows& rows, uint64_t scanned);

  /// Fold another executor's partial state into this one. Both must have
  /// been built from the same schema and spec; `other` is consumed. Used
  /// by the parallel Select path: each scan job runs its own fragment
  /// executor, then the query thread merges fragments in file order and
  /// Finalizes once, so ORDER BY / LIMIT see the complete row set and the
  /// result matches the serial path. Merging is order-insensitive except
  /// for floating-point SUM/AVG rounding, hence the deterministic file
  /// order on the caller side.
  Status MergeFrom(Executor&& other);

  /// Produce the final result. For aggregates, one row per group.
  Result<QueryResult> Finalize();

 private:
  const format::Schema schema_;
  const QuerySpec spec_;
  std::vector<int> columns_;  // the projection's schema indices
  AggregateOperator aggregate_;
  std::vector<format::Row> plain_rows_;
  uint64_t rows_scanned_ = 0;
  uint64_t rows_matched_ = 0;
  Status init_status_;
};

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_EXECUTOR_H_
