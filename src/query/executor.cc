#include "query/executor.h"

#include "common/metrics.h"

namespace streamlake::query {

Executor::Executor(const format::Schema& schema, const QuerySpec& spec)
    : schema_(schema), spec_(spec) {
  init_status_ = aggregate_.Init(schema_, spec_.group_by, spec_.aggregates);
  if (!init_status_.ok()) return;
  init_status_ = project_.Init(schema_, spec_.projection);
}

Status Executor::Consume(const std::vector<format::Row>& rows) {
  std::vector<format::Row> matched;
  for (const format::Row& row : rows) {
    if (spec_.where.Matches(schema_, row)) matched.push_back(row);
  }
  return ConsumeFiltered(std::move(matched), rows.size());
}

Status Executor::ConsumeFiltered(std::vector<format::Row> rows,
                                 uint64_t scanned) {
  SL_RETURN_NOT_OK(init_status_);
  rows_scanned_ += scanned;
  rows_matched_ += rows.size();
  for (format::Row& row : rows) {
    if (!spec_.aggregates.empty()) {
      aggregate_.Consume(row);
    } else if (project_.active()) {
      plain_rows_.push_back(project_.Apply(row));
    } else {
      plain_rows_.push_back(std::move(row));
    }
  }
  return Status::OK();
}

Status Executor::ConsumeBatch(std::span<const format::ColumnChunkPtr> columns,
                              std::span<const uint32_t> selection,
                              uint64_t scanned) {
  SL_RETURN_NOT_OK(init_status_);
  if (spec_.aggregates.empty()) {
    return Status::InvalidArgument("only an aggregate query folds batches");
  }
  rows_scanned_ += scanned;
  rows_matched_ += selection.size();
  aggregate_.ConsumeBatch(columns, selection);
  return Status::OK();
}

Status Executor::MergeFrom(Executor&& other) {
  SL_RETURN_NOT_OK(init_status_);
  SL_RETURN_NOT_OK(other.init_status_);
  rows_scanned_ += other.rows_scanned_;
  rows_matched_ += other.rows_matched_;
  plain_rows_.insert(plain_rows_.end(),
                     std::make_move_iterator(other.plain_rows_.begin()),
                     std::make_move_iterator(other.plain_rows_.end()));
  aggregate_.Merge(std::move(other.aggregate_));
  return Status::OK();
}

Result<QueryResult> Executor::Finalize() {
  SL_RETURN_NOT_OK(init_status_);
  QueryResult result;
  result.rows_scanned = rows_scanned_;
  result.rows_matched = rows_matched_;
  static Counter* rows_scanned =
      MetricsRegistry::Global().GetCounter("query.rows_scanned");
  static Counter* rows_matched =
      MetricsRegistry::Global().GetCounter("query.rows_matched");
  rows_scanned->Increment(rows_scanned_);
  rows_matched->Increment(rows_matched_);

  if (spec_.aggregates.empty()) {
    if (!project_.active()) {
      for (const format::Field& f : schema_.fields()) {
        result.column_names.push_back(f.name);
      }
    } else {
      static Counter* project_rows =
          MetricsRegistry::Global().GetCounter("query.op.project.rows");
      project_rows->Increment(plain_rows_.size());
      for (int col : project_.columns()) {
        result.column_names.push_back(schema_.field(col).name);
      }
    }
    result.rows = std::move(plain_rows_);
  } else {
    static Counter* aggregate_rows =
        MetricsRegistry::Global().GetCounter("query.op.aggregate.rows");
    aggregate_rows->Increment(aggregate_.rows_consumed());
    aggregate_.Finalize(&result);
  }
  if (!spec_.order_by.empty()) {
    static Counter* sort_rows =
        MetricsRegistry::Global().GetCounter("query.op.sort.rows");
    sort_rows->Increment(result.rows.size());
  }
  SL_RETURN_NOT_OK(ApplySortLimit(spec_.order_by, spec_.order_descending,
                                  spec_.limit, &result));
  return result;
}

Result<QueryResult> Execute(const format::Schema& schema,
                            const std::vector<format::Row>& rows,
                            const QuerySpec& spec) {
  Executor executor(schema, spec);
  SL_RETURN_NOT_OK(executor.Consume(rows));
  return executor.Finalize();
}

}  // namespace streamlake::query
