#ifndef STREAMLAKE_QUERY_EXECUTOR_H_
#define STREAMLAKE_QUERY_EXECUTOR_H_

#include <span>
#include <string>
#include <vector>

#include "query/operators.h"
#include "query/spec.h"

namespace streamlake::query {

/// \brief In-memory relational executor used both at the "compute engine"
/// side and storage-side when computation pushdown is enabled. A thin
/// facade over the composable operators (project | aggregate ->
/// sort/limit): it keeps the scan-fragment contract the scan pipeline
/// relies on (ConsumeFiltered or ConsumeBatch per fragment, MergeFrom in
/// deterministic file order, Finalize once).
class Executor {
 public:
  /// Executes `spec` over the rows consumed (once per file/fragment, then
  /// Finalize).
  Executor(const format::Schema& schema, const QuerySpec& spec);

  /// The row-at-a-time reference: evaluate `spec.where` on every row, then
  /// ConsumeFiltered the matches.
  Status Consume(const std::vector<format::Row>& rows);

  /// Consume rows the scan already filtered column-at-a-time: `rows` are
  /// the matches out of `scanned` visible rows, so the WHERE clause is not
  /// re-evaluated (late-materialized rows only carry the required columns).
  Status ConsumeFiltered(std::vector<format::Row> rows, uint64_t scanned);

  /// Consume a scanned batch without building rows: the rows `selection`
  /// picks out of `columns` (decoded chunks by schema index) matched, out
  /// of `scanned` visible rows. Only an aggregate query folds batches
  /// (AggregateOperator::ConsumeBatch); any other spec is InvalidArgument.
  Status ConsumeBatch(std::span<const format::ColumnChunkPtr> columns,
                      std::span<const uint32_t> selection, uint64_t scanned);

  /// Consume rows held in place in column chunks (a scan's selected rows,
  /// or joined rows): the `rows` matched out of `scanned`. An aggregate
  /// folds them without building rows; a projection builds only its
  /// columns, SELECT * every column.
  Status ConsumeRows(const ChunkRows& rows, uint64_t scanned);

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
  ProjectOperator project_;
  AggregateOperator aggregate_;
  std::vector<format::Row> plain_rows_;
  uint64_t rows_scanned_ = 0;
  uint64_t rows_matched_ = 0;
  Status init_status_;
};

/// Convenience single-shot execution.
Result<QueryResult> Execute(const format::Schema& schema,
                            const std::vector<format::Row>& rows,
                            const QuerySpec& spec);

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_EXECUTOR_H_
